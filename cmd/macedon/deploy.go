package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"macedon/internal/deploy"
	"macedon/internal/harness"
	"macedon/internal/metrics"
	"macedon/internal/scenario"
)

// runDeploy implements "macedon deploy": execute a declarative scenario as
// a real multi-process deployment on this host — one agent process per
// overlay node over livenet UDP sockets, churn as SIGKILL/restart,
// partitions and degradations as shaping filters — and print the same
// per-phase report the emulated path emits, plus the live-only columns
// (hops, control overhead). With -vs-sim the same scenario also runs on
// the emulator and the conformance verdict (docs/deploy.md tolerances) is
// printed; a failed verdict exits nonzero.
func runDeploy(args []string) int {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	nodes := fs.Int("nodes", 0, "override the scenario's population")
	seed := fs.Int64("seed", 0, "override the scenario's seed")
	speed := fs.Float64("speed", 1, "timeline compression (2 = twice as fast; protocol timers and failure detectors stay real-time — keep churn downtime/speed above fail_after, see docs/deploy.md)")
	basePort := fs.Int("base-port", 40000, "first UDP port; node i binds base-port+i")
	agentLogs := fs.String("agent-logs", "", "directory for per-agent log files")
	jsonOut := fs.String("json", "", "write the live report (and sim report with -vs-sim) as JSON to this file ('-' = stdout)")
	vsSim := fs.Bool("vs-sim", false, "also run the scenario on the emulator and print the live-vs-sim conformance verdict")
	shards := fs.Int("shards", 0, "emulator shards for -vs-sim (0 = GOMAXPROCS)")
	trace := fs.Bool("trace", false, "print the live event trace")
	quiet := fs.Bool("q", false, "suppress progress lines")
	obsOn := fs.Bool("obs", false, "enable the observability plane and print its output (fleet metrics exposition, sampled events, operation traces) after the report")
	traceSample := fs.Int("trace-sample", 0, "keep 1-in-N operation traces and event records (0 or 1 = all); sampling is keyed by the seed, matching a sim run's sampled population")
	metricsAddr := fs.String("metrics-addr", "", "base metrics endpoint (\"host:port\", \":port\", or a bare port): agent i serves Prometheus metrics on host:port+i at /metrics (and /debug/obs); empty host binds 127.0.0.1, 0.0.0.0 exposes the fleet to an external scraper")
	verbose := fs.Bool("v", false, "verbose report: per-phase forwards, mean hops, control traffic, and obs histograms")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "macedon deploy: exactly one scenario file required")
		return 2
	}
	s, err := scenario.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Arg(0), err)
		return 1
	}
	if *nodes > 0 {
		s.Nodes = *nodes
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "macedon deploy: cannot locate own binary: %v\n", err)
		return 1
	}
	cfg := deploy.Config{
		Scenario:    s,
		Speed:       *speed,
		BasePort:    *basePort,
		AgentCmd:    []string{self, "agent"},
		AgentLogDir: *agentLogs,
		Obs:         *obsOn,
		TraceSample: *traceSample,
	}
	if *metricsAddr != "" {
		host, port, err := parseMetricsAddr(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macedon deploy: -metrics-addr: %v\n", err)
			return 2
		}
		cfg.MetricsBase = port
		cfg.MetricsHost = host
	}
	if !*quiet {
		cfg.Out = os.Stderr
	}
	start := time.Now()
	rep, err := deploy.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "macedon deploy: %v\n", err)
		return 1
	}
	if *trace {
		fmt.Print(rep.TraceText())
		fmt.Println()
	}
	rep.FormatOpts(func(format string, args ...any) { fmt.Printf(format, args...) }, *verbose)
	printLiveColumns(rep)
	fmt.Printf("# live wall clock: %s\n", time.Since(start).Round(time.Millisecond))
	if *obsOn {
		fmt.Println()
		fmt.Print(rep.ObsText())
	}

	var simRep *scenario.Report
	exit := 0
	if *vsSim {
		n := *shards
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		simRep, err = harness.RunScenarioExec(s, harness.ExecOptions{Shards: n})
		if err != nil {
			fmt.Fprintf(os.Stderr, "macedon deploy -vs-sim: %v\n", err)
			return 1
		}
		cmp := metrics.Grade("live-vs-sim", metrics.Labelled{Label: "live", Report: rep},
			metrics.Labelled{Label: "sim", Report: simRep}, metrics.LiveVsSim)
		fmt.Println()
		fmt.Print(cmp.Table())
		if !cmp.Pass {
			exit = 1
		}
	}
	if *jsonOut != "" {
		if err := writeDeployJSON(*jsonOut, rep, simRep); err != nil {
			fmt.Fprintf(os.Stderr, "macedon deploy: %v\n", err)
			return 1
		}
	}
	return exit
}

// parseMetricsAddr accepts "host:port", ":port", or a bare port. The host
// part is the agents' metrics bind address ("" = 127.0.0.1); node i serves
// port+i.
func parseMetricsAddr(s string) (string, int, error) {
	host := ""
	if i := strings.LastIndexByte(s, ':'); i >= 0 {
		host = s[:i]
		s = s[i+1:]
	}
	port, err := strconv.Atoi(s)
	if err != nil || port <= 0 || port > 65535 {
		return "", 0, fmt.Errorf("bad port %q", s)
	}
	return host, port, nil
}

// printLiveColumns prints the per-phase metrics the legacy report format
// omits (it predates them and is golden-gated): delivery rate, mean hop
// count, control overhead.
func printLiveColumns(rep *scenario.Report) {
	for i, p := range rep.Phases {
		if p.OpsSent == 0 {
			continue
		}
		fmt.Printf("  phase %d metrics: delivery=%.2f%% mean_hops=%.3f ctl_msgs=%d ctl_bytes=%d\n",
			i, 100*float64(p.OpsDelivered)/float64(p.OpsSent), p.MeanHops, p.CtlMsgs, p.CtlBytes)
	}
}

// writeDeployJSON writes the machine-readable run result: the live report,
// plus the sim report when one was produced.
func writeDeployJSON(path string, live, sim *scenario.Report) error {
	type payload struct {
		Live *metrics.ReportJSON `json:"live"`
		Sim  *metrics.ReportJSON `json:"sim,omitempty"`
	}
	p := payload{Live: metrics.EncodeReport(live)}
	if sim != nil {
		p.Sim = metrics.EncodeReport(sim)
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
