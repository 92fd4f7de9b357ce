package harness

import (
	"strings"
	"testing"
	"time"

	"macedon/internal/scenario"
)

// sweepBase is a small settle-heavy scenario for sweep tests.
func sweepBase() scenario.Scenario {
	return scenario.Scenario{
		Name:     "sweep-test",
		Seed:     2004,
		Nodes:    10,
		Routers:  60,
		Protocol: "chord",
		Join:     scenario.JoinSpec{Process: "staggered", Window: scenario.Duration(8 * time.Second)},
		Settle:   scenario.Duration(30 * time.Second),
		Drain:    scenario.Duration(5 * time.Second),
		Phases: []scenario.Phase{
			{
				Name:     "churn",
				Duration: scenario.Duration(20 * time.Second),
				Churn:    &scenario.Churn{Model: "poisson", Rate: 0.05, Downtime: scenario.Duration(8 * time.Second)},
				Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 2},
			},
		},
	}
}

// TestSweepMatchesColdRuns is the core sweep correctness gate: every variant
// branch of a shared-prefix sweep must be byte-identical (trace and report)
// to the same resolved scenario executed cold.
func TestSweepMatchesColdRuns(t *testing.T) {
	sw := &scenario.Sweep{
		Name: "cold-equivalence",
		Base: sweepBase(),
		Variants: []scenario.SweepVariant{
			{Name: "calm", ChurnRate: 0.02},
			{Name: "storm", ChurnRate: 0.2},
			{Name: "busy", WorkloadRate: 6},
		},
	}
	rep, err := RunSweep(sw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups != 1 {
		t.Fatalf("variants should share one prefix group, got %d", rep.Groups)
	}
	resolved, err := sw.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for i, rv := range resolved {
		vr := rep.Results[i]
		if !vr.SharedPrefix {
			t.Fatalf("variant %q did not share the prefix", vr.Name)
		}
		cold, err := runSim(rv.Scenario, 2, ObsOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := vr.Report.TraceText()+vr.Report.String(), cold.TraceText()+cold.String(); got != want {
			t.Fatalf("variant %q: forked branch diverges from cold run:\nforked:\n%s\ncold:\n%s", vr.Name, got, want)
		}
	}
}

// TestSweepColdFallback checks variants that change the prefix itself (seed,
// protocol) drop out of prefix sharing but still run.
func TestSweepColdFallback(t *testing.T) {
	sw := &scenario.Sweep{
		Name: "fallback",
		Base: sweepBase(),
		Variants: []scenario.SweepVariant{
			{Name: "base-a", ChurnRate: 0.02},
			{Name: "base-b", ChurnRate: 0.1},
			{Name: "other-seed", Seed: 99},
			{Name: "other-proto", Protocol: "randtree"},
		},
	}
	rep, err := RunSweep(sw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups != 3 {
		t.Fatalf("want 3 prefix groups (shared pair + 2 cold), got %d", rep.Groups)
	}
	if !rep.Results[0].SharedPrefix || !rep.Results[1].SharedPrefix {
		t.Fatal("same-prefix variants should fork")
	}
	if rep.Results[2].SharedPrefix || rep.Results[3].SharedPrefix {
		t.Fatal("prefix-changing variants must run cold")
	}
	if rep.Results[3].Protocol != "randtree" {
		t.Fatalf("protocol override lost: %q", rep.Results[3].Protocol)
	}
	if !strings.Contains(rep.TimingSummary(), "forked") {
		t.Fatal("timing summary missing fork accounting")
	}
}

// TestSweepForkPointPhase checks forking at a marked phase boundary: the
// phases up to the marker are shared, and variant phase replacements attach
// after it.
func TestSweepForkPointPhase(t *testing.T) {
	base := sweepBase()
	base.Phases = []scenario.Phase{
		{
			Name:      "warm",
			Duration:  scenario.Duration(10 * time.Second),
			Workload:  &scenario.Workload{Kind: scenario.WlLookups, Rate: 1},
			ForkPoint: true,
		},
		{
			Name:     "measure",
			Duration: scenario.Duration(15 * time.Second),
			Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 2},
		},
	}
	sw := &scenario.Sweep{
		Name: "fork-phase",
		Base: base,
		Variants: []scenario.SweepVariant{
			{Name: "keep"},
			{Name: "replaced", Phases: []scenario.Phase{
				{
					Name:     "blast",
					Duration: scenario.Duration(10 * time.Second),
					Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 8},
				},
			}},
		},
	}
	rep, err := RunSweep(sw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups != 1 {
		t.Fatalf("fork-point variants should share a group, got %d", rep.Groups)
	}
	if got := rep.Results[1].Report.Phases; len(got) != 2 || got[1].Name != "blast" {
		t.Fatalf("phase replacement after fork point failed: %+v", got)
	}
	// The shared warm phase must be identical across variants.
	a, b := rep.Results[0].Report.Phases[0], rep.Results[1].Report.Phases[0]
	if a.OpsSent != b.OpsSent || a.Net != b.Net {
		t.Fatalf("shared warm phase diverges: %+v vs %+v", a, b)
	}
	// And each variant must equal its cold run.
	resolved, _ := sw.Resolve()
	for i, rv := range resolved {
		cold, err := runSim(rv.Scenario, 1, ObsOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Results[i].Report.TraceText() != cold.TraceText() {
			t.Fatalf("variant %q trace diverges from cold run", rv.Name)
		}
	}
}
