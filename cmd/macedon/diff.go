package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"

	"macedon/internal/harness"
	"macedon/internal/metrics"
	"macedon/internal/scenario"
)

// runDiff implements "macedon diff": differential conformance between a
// generated protocol and its hand-written port. The scenario's protocol
// names either side of a pair (genpastry/pastry); both
// implementations run the same compiled schedule on the emulator and the
// drift is graded within declared tolerances (metrics.Grade under the
// GenVsHand preset). A failed verdict exits nonzero, which is what makes the
// command a CI gate.
func runDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "override the scenario's seed")
	shards := fs.Int("shards", 0, "event-loop shards (0 = GOMAXPROCS); any value prints identical output")
	jsonOut := fs.String("json", "", "write the verdict as JSON to this file ('-' = stdout)")
	tol := metrics.GenVsHand
	fs.Float64Var(&tol.DeliveryPoints, "tol-delivery", tol.DeliveryPoints, "delivery tolerance in points (0 = report, do not grade)")
	fs.Float64Var(&tol.HopsFrac, "tol-hops", tol.HopsFrac, "mean-hop tolerance as a fraction (0 = report, do not grade)")
	fs.Float64Var(&tol.MsgsFrac, "tol-msgs", tol.MsgsFrac, "control-message tolerance as a fraction (0 = report, do not grade)")
	fs.Float64Var(&tol.BytesFrac, "tol-bytes", tol.BytesFrac, "control-byte tolerance as a fraction (0 = report, do not grade)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "macedon diff: exactly one scenario file required")
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
	genName, handName, err := diffPair(s.Protocol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "macedon diff: %v\n", err)
		return 2
	}
	n := *shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	run := func(proto string) (*scenario.Report, error) {
		// The two runs share everything but the protocol: same seed, same
		// compiled schedule, same workload population.
		v := *s
		v.Protocol = proto
		return harness.RunScenarioExec(&v, harness.ExecOptions{Shards: n})
	}
	genRep, err := run(genName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "macedon diff: %s run: %v\n", genName, err)
		return 1
	}
	handRep, err := run(handName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "macedon diff: %s run: %v\n", handName, err)
		return 1
	}
	d := metrics.Grade("gen-vs-hand", metrics.Labelled{Label: genName, Report: genRep},
		metrics.Labelled{Label: handName, Report: handRep}, tol)
	fmt.Print(d.Table())
	if *jsonOut != "" {
		body, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "macedon diff: encode: %v\n", err)
			return 1
		}
		body = append(body, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(body)
		} else if err := os.WriteFile(*jsonOut, body, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *jsonOut, err)
			return 1
		}
	}
	if !d.Pass {
		return 1
	}
	return 0
}

// diffPair resolves a scenario protocol to its (generated, hand-written)
// implementation pair: either side of the pair may be named. A protocol
// whose two names run the same agents has no hand port left to compare.
func diffPair(proto string) (gen, hand string, err error) {
	if proto == "" {
		proto = "chord"
	}
	if strings.HasPrefix(proto, "gen") {
		gen, hand = proto, strings.TrimPrefix(proto, "gen")
	} else {
		gen, hand = "gen"+proto, proto
	}
	// Every pair is single-layer, so its agent type identifies its code.
	var agents [2]reflect.Type
	for i, p := range []string{gen, hand} {
		stack, err := harness.ScenarioStack(p)
		if err != nil {
			return "", "", fmt.Errorf("protocol %q has no gen/hand pair (%v)", proto, err)
		}
		agents[i] = reflect.TypeOf(stack[len(stack)-1]())
	}
	if agents[0] == agents[1] {
		return "", "", fmt.Errorf("protocol %q has no hand port: %s and %s run the same generated code", proto, gen, hand)
	}
	return gen, hand, nil
}
