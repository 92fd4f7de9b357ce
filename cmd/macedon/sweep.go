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

// runSweep implements "macedon sweep": load a declarative sweep file (a base
// scenario plus K variants), execute it with shared-prefix checkpoint/fork
// (docs/sweeps.md), and print the comparative per-variant table. The table
// is deterministic; the wall-clock timing footer (suppress with -timing=false)
// is the only machine-dependent output.
func runSweep(args []string) int {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "override the base scenario's seed")
	shards := fs.Int("shards", 0, "event-loop shards (0 = GOMAXPROCS, 1 = sequential); any value prints an identical table")
	timing := fs.Bool("timing", true, "print the wall-clock timing footer")
	jsonOut := fs.Bool("json", false, "emit the machine-readable sweep result instead of the table (deterministic; no timing)")
	obsOn := fs.Bool("obs", false, "enable the observability plane: the table gains a per-variant obs snapshot section (prefixes are shared as without it)")
	traceSample := fs.Int("trace-sample", 0, "with -obs, keep 1-in-N operation traces and event records per variant (0 or 1 = all)")
	seriesInterval := fs.Duration("series-interval", 0, "with -obs, also sample each variant's engine time series every interval of virtual time inside each phase (0 = phase boundaries only); `macedon report` renders them from -json output")
	check := fs.Bool("check", false, "validate and resolve only; print the variant summary")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "macedon sweep: exactly one sweep file required")
		return 2
	}
	sw, err := scenario.LoadSweep(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Arg(0), err)
		return 1
	}
	if *seed != 0 {
		sw.Base.Seed = *seed
	}
	if *check {
		vs, err := sw.Resolve()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Arg(0), err)
			return 1
		}
		fmt.Printf("sweep %q: base %q (%d nodes), %d variants, fork phase %d\n",
			sw.Name, sw.Base.Name, sw.Base.Nodes, len(vs), sw.Base.ForkPhase())
		for _, v := range vs {
			fmt.Printf("  %-16s protocol=%s seed=%d nodes=%d phases=%d",
				v.Name, v.Scenario.Protocol, v.Scenario.Seed, v.Scenario.Nodes, len(v.Scenario.Phases))
			if len(v.Scenario.Params) > 0 {
				fmt.Printf(" params=%v", v.Scenario.Params)
			}
			fmt.Println()
		}
		return 0
	}
	n := *shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	rep, err := harness.RunSweepExec(sw, n, harness.ObsOptions{Enabled: *obsOn, TraceSample: *traceSample, SeriesInterval: *seriesInterval})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Arg(0), err)
		return 1
	}
	if *jsonOut {
		b, err := metrics.SweepToJSON(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macedon sweep: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", b)
		return 0
	}
	fmt.Print(metrics.SweepTable(rep))
	if *timing {
		fmt.Print(rep.TimingSummary())
	}
	return 0
}
