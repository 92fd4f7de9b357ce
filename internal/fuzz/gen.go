// Package fuzz is the deterministic scenario fuzzer: seed-keyed random
// scenarios composed from the existing schedule primitives (churn models,
// network events, workloads), executed on the emulator with the invariant
// checkers enabled, and — when a run fails — deterministically shrunk to a
// minimal reproduction. Everything is keyed by the fuzz seed: the same
// seed generates the same scenario, fails the same way, and shrinks to the
// same repro bytes, so a failure found anywhere replays everywhere.
package fuzz

import (
	"fmt"
	"math/rand"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/scenario"
)

// protocols is the fuzzed stack pool: every bundled protocol the
// correctness plane has structural checkers for, each implementation once
// (chord, pastry and randtree name the same agents as genchord, genpastry
// and genrandtree). The order is arbitrary but pinned: seed 2 must draw
// randtree, the protocol of the committed shrinker demo
// (testdata/repro/synthetic-2.json).
var protocols = []string{
	"genchord", "genpastry", "randtree", "overcast",
}

// workloadKind is the workload that fits proto's declared routing: a tree
// disseminates (multicast), any other stack routes (lookups).
func workloadKind(proto string) string {
	stack, err := harness.ScenarioStack(proto)
	if err == nil && core.StackRouting(stack) == core.RoutingTree {
		return scenario.WlMulticast
	}
	return scenario.WlLookups
}

// sec returns a whole-second Duration — generated scenarios stay readable.
func sec(n int) scenario.Duration { return scenario.Duration(int64(n) * 1e9) }

// Generate builds the seed's scenario. All randomness comes from the seed;
// no ambient entropy. synthetic additionally enables the
// synthetic-full-population checker, which flags every down node — a
// checker that always fails under churn, used to exercise the shrinker
// end to end.
func Generate(seed int64, synthetic bool) *scenario.Scenario {
	rng := rand.New(rand.NewSource(seed))
	proto := protocols[rng.Intn(len(protocols))]
	nodes := 8 + rng.Intn(13) // 8..20
	s := &scenario.Scenario{
		Name:     fmt.Sprintf("fuzz-%d", seed),
		Seed:     seed,
		Nodes:    nodes,
		Routers:  100,
		Protocol: proto,
		Join:     scenario.JoinSpec{Process: "staggered", Window: sec(10 + rng.Intn(11))},
		Settle:   sec(45 + rng.Intn(31)),
		Drain:    sec(15),
		// Fast failure detection keeps the grace window meaningful on the
		// fuzzer's short phases.
		HeartbeatAfter: sec(1 + rng.Intn(2)),
		FailAfter:      sec(4 + rng.Intn(5)),
		Checks: &scenario.ChecksSpec{
			Names: []string{"auto"},
			Grace: sec(20 + rng.Intn(11)),
		},
	}
	if synthetic {
		s.Checks.Names = append(s.Checks.Names, "synthetic-full-population")
	}
	nphases := 1 + rng.Intn(3)
	wl := workloadKind(proto)
	for pi := 0; pi < nphases; pi++ {
		s.Phases = append(s.Phases, genPhase(rng, pi, nodes, wl))
	}
	return s
}

// genPhase rolls one phase: a duration, an optional churn process, an
// optional scripted event pair, and a workload of kind wl.
func genPhase(rng *rand.Rand, pi, nodes int, wl string) scenario.Phase {
	durS := 50 + rng.Intn(41) // 50..90s
	p := scenario.Phase{
		Name:     fmt.Sprintf("p%d", pi),
		Duration: sec(durS),
	}
	if rng.Intn(2) == 0 {
		if rng.Intn(2) == 0 {
			p.Churn = &scenario.Churn{
				Model:    "poisson",
				Rate:     0.02 + 0.06*rng.Float64(),
				Downtime: sec(20 + rng.Intn(21)),
			}
		} else {
			p.Churn = &scenario.Churn{
				Model:    "wave",
				Kill:     1 + rng.Intn(2),
				Period:   sec(15 + rng.Intn(16)),
				Downtime: sec(20 + rng.Intn(16)),
			}
		}
	}
	if rng.Intn(3) == 0 {
		p.Events = genEvents(rng, durS, nodes)
	}
	p.Workload = &scenario.Workload{Kind: wl, Rate: 1 + float64(rng.Intn(3)), Size: 64}
	if wl == scenario.WlMulticast {
		p.Workload.Size = 200
	}
	return p
}

// genEvents scripts one paired disturbance inside the phase: a hit at t1
// and its undo at t2 (both inside the phase, t1 < t2). Node 0 is never a
// target — it is the bootstrap and the tree root, and the schedule
// compiler protects it from churn for the same reason.
func genEvents(rng *rand.Rand, durS, nodes int) []scenario.Event {
	t1 := sec(5 + rng.Intn(durS/3))
	t2 := sec(durS/2 + rng.Intn(durS/2-2))
	victim := 1 + rng.Intn(nodes-1)
	switch rng.Intn(5) {
	case 0:
		frac := 0.25 + 0.25*rng.Float64()
		return []scenario.Event{
			{At: t1, Kind: scenario.EvPartition, Fraction: frac},
			{At: t2, Kind: scenario.EvHeal},
		}
	case 1:
		return []scenario.Event{
			{At: t1, Kind: scenario.EvNodeDown, Node: victim},
			{At: t2, Kind: scenario.EvNodeUp, Node: victim},
		}
	case 2:
		return []scenario.Event{
			{At: t1, Kind: scenario.EvDegrade, Node: victim,
				LatencyFactor: 2 + 3*rng.Float64(), Loss: 0.05 + 0.15*rng.Float64()},
			{At: t2, Kind: scenario.EvRestore, Node: victim},
		}
	case 3:
		return []scenario.Event{
			{At: t1, Kind: scenario.EvLinkDown, Node: victim},
			{At: t2, Kind: scenario.EvLinkUp, Node: victim},
		}
	default:
		return []scenario.Event{
			{At: t1, Kind: scenario.EvKill, Node: victim},
			{At: t2, Kind: scenario.EvRevive, Node: victim},
		}
	}
}
