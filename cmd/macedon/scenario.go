package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"macedon/internal/harness"
	"macedon/internal/metrics"
	"macedon/internal/scenario"
)

// runScenario implements "macedon scenario": load a declarative scenario
// file, execute it on the emulator, and print the report (and, with -trace,
// the deterministic event trace). Running the same file with the same seed
// twice prints byte-identical output.
func runScenario(args []string) int {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "override the scenario's seed")
	trace := fs.Bool("trace", false, "print the executed event trace")
	check := fs.Bool("check", false, "validate and compile only; print the schedule summary")
	shards := fs.Int("shards", 0, "event-loop shards (0 = GOMAXPROCS, 1 = sequential); any value prints identical output")
	obsOn := fs.Bool("obs", false, "enable the observability plane and print its output (metrics exposition, sampled events, operation traces, per-phase time series) after the report")
	traceSample := fs.Int("trace-sample", 0, "keep 1-in-N operation traces and event records (0 or 1 = all); sampling is keyed by the seed, so any shard count keeps the same ops")
	seriesInterval := fs.Duration("series-interval", 0, "with -obs, also sample the engine time series every interval of virtual time inside each phase (0 = phase boundaries only); sampling is scheduled on the virtual clock, so any shard count records identical series")
	jsonOut := fs.String("json", "", "write the machine-readable report (including the obs series with -obs) as JSON to this file ('-' = stdout)")
	verbose := fs.Bool("v", false, "verbose report: per-phase forwards, mean hops, control traffic, and obs histograms")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "macedon scenario: exactly one scenario file required")
		return 2
	}
	s, err := scenario.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Arg(0), err)
		return 1
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	if *check {
		sched, err := scenario.Compile(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Arg(0), err)
			return 1
		}
		fmt.Printf("scenario %q: %d nodes, %d phases, %d ops (%d lookups, %d multicasts), settle=%s total=%s\n",
			s.Name, s.Nodes, len(sched.Phases), len(sched.Ops), sched.Lookups, sched.Multicasts,
			sched.Settle, sched.Total)
		return 0
	}
	n := *shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	rep, err := harness.RunScenarioExec(s, harness.ExecOptions{
		Shards: n,
		Obs: harness.ObsOptions{
			Enabled:        *obsOn,
			TraceSample:    *traceSample,
			SeriesInterval: *seriesInterval,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Arg(0), err)
		return 1
	}
	if *trace {
		fmt.Print(rep.TraceText())
		fmt.Println()
	}
	rep.FormatOpts(func(format string, args ...any) { fmt.Printf(format, args...) }, *verbose)
	if *obsOn {
		fmt.Println()
		fmt.Print(rep.ObsText())
	}
	if *jsonOut != "" {
		b, err := metrics.ReportToJSON(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macedon scenario: %v\n", err)
			return 1
		}
		b = append(b, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(b)
		} else if err := os.WriteFile(*jsonOut, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "macedon scenario: %v\n", err)
			return 1
		}
	}
	return 0
}
