// Observability-plane integration gates: an end-to-end operation trace
// reconstructed from the report's span records must describe a real route —
// starting at the injecting node, hop-linked through every forward, and
// ending at the node the global-knowledge routing oracle names as the
// key's owner.
package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"macedon/internal/check"
	"macedon/internal/harness"
	"macedon/internal/obs"
	"macedon/internal/overlay"
	"macedon/internal/scenario"
)

// obsTraceScenario is a churn-free chord run: with the full population
// stable through the lookup phase, the chord oracle's successor is the
// ground-truth owner of every key.
func obsTraceScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:     "obs-trace-oracle",
		Seed:     909,
		Nodes:    12,
		Routers:  80,
		Protocol: "chord",
		Join:     scenario.JoinSpec{Process: "staggered", Window: scenario.Duration(6e9)},
		Settle:   scenario.Duration(40e9),
		Drain:    scenario.Duration(10e9),
		Phases: []scenario.Phase{
			{
				Name:     "lookups",
				Duration: scenario.Duration(20e9),
				Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 2},
			},
		},
	}
}

// parsedSpan is one decoded span line.
type parsedSpan struct {
	trace      string
	op         int
	at         float64
	kind       string
	node, next int
}

// parseSpanLine decodes the canonical span rendering
// ("trace=… op=… t=…s kind node=… [next=…]").
func parseSpanLine(t *testing.T, line string) parsedSpan {
	t.Helper()
	ps := parsedSpan{next: -1}
	fields := strings.Fields(line)
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			ps.kind = f
			continue
		}
		var err error
		switch k {
		case "trace":
			ps.trace = v
		case "op":
			ps.op, err = strconv.Atoi(v)
		case "t":
			ps.at, err = strconv.ParseFloat(strings.TrimSuffix(v, "s"), 64)
		case "node":
			ps.node, err = strconv.Atoi(v)
		case "next":
			ps.next, err = strconv.Atoi(v)
		}
		if err != nil {
			t.Fatalf("bad span field %q in %q: %v", f, line, err)
		}
	}
	if ps.kind == "" || ps.trace == "" {
		t.Fatalf("span line %q missing kind or trace", line)
	}
	return ps
}

// TestObsTracePropagation replays a scenario with full trace sampling and
// checks every delivered lookup's span chain against the compiled schedule
// and the chord routing oracle.
func TestObsTracePropagation(t *testing.T) {
	s := obsTraceScenario()
	sched, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	opByID := make(map[int]scenario.Op)
	for _, op := range sched.Ops {
		if op.Kind == scenario.OpLookup {
			opByID[op.ID] = op
		}
	}
	if len(opByID) == 0 {
		t.Fatal("schedule compiled no lookups")
	}
	addrs := make([]overlay.Address, s.Nodes)
	for i := range addrs {
		addrs[i] = scenario.Addr(i)
	}
	oracle := check.NewChordOracle(addrs)

	rep, err := harness.RunScenarioExec(s, harness.ExecOptions{Shards: 2, Obs: harness.ObsOptions{Enabled: true, TraceSample: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Obs == nil || len(rep.Obs.Spans) == 0 {
		t.Fatal("run produced no span records")
	}

	chains := make(map[int][]parsedSpan)
	for _, line := range rep.Obs.Spans {
		ps := parseSpanLine(t, line)
		chains[ps.op] = append(chains[ps.op], ps) // span lines are already in canonical (time) order
	}

	delivered, multiHop := 0, 0
	for opID, chain := range chains {
		op, ok := opByID[opID]
		if !ok {
			t.Fatalf("op %d traced but not in the compiled schedule", opID)
		}
		wantTrace := obs.MintTraceID(s.Seed, opID)
		if chain[0].kind != "inject" {
			t.Fatalf("op %d: chain starts with %q, want inject", opID, chain[0].kind)
		}
		if chain[0].node != op.Node {
			t.Fatalf("op %d: injected at node %d, schedule says node %d", opID, chain[0].node, op.Node)
		}
		last := chain[0]
		for _, ps := range chain {
			if want := fmt.Sprintf("%016x", uint64(wantTrace)); ps.trace != want {
				t.Fatalf("op %d: trace id %s, want %s", opID, ps.trace, want)
			}
			if ps.at < last.at {
				t.Fatalf("op %d: span times regress (%f after %f)", opID, ps.at, last.at)
			}
			last = ps
		}
		// Forward linkage: each forward names the node the next span runs on.
		for i := 1; i < len(chain); i++ {
			prev, cur := chain[i-1], chain[i]
			if prev.kind == "forward" && prev.next != cur.node {
				t.Fatalf("op %d: forward at node %d names next=%d but the chain continues at node %d",
					opID, prev.node, prev.next, cur.node)
			}
		}
		final := chain[len(chain)-1]
		if final.kind != "deliver" {
			continue // dropped in flight: inject (and maybe forwards) without a delivery
		}
		delivered++
		if len(chain) > 2 {
			multiHop++
		}
		if owner := oracle.Successor(overlay.Key(op.Key)); addrs[final.node] != owner {
			t.Fatalf("op %d: delivered at node %d (%v), oracle owner is %v",
				opID, final.node, addrs[final.node], owner)
		}
	}
	if delivered == 0 {
		t.Fatal("no lookup completed with a deliver span")
	}
	if multiHop == 0 {
		t.Fatal("no multi-hop trace recorded; forward spans are not propagating")
	}
	t.Logf("validated %d delivered traces (%d multi-hop) of %d lookups", delivered, multiHop, len(opByID))
}
