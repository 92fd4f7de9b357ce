package harness

import (
	"strings"
	"testing"
	"time"

	"macedon/internal/metrics"
	"macedon/internal/repo"
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

// sweepMatchesCold is the core sweep correctness gate: every variant of sw
// must come out of RunSweepExec byte-identical — by render — to the same
// resolved scenario run on its own, and must have shared its prefix
// wherever its group has more than one member (wantShared, by variant).
func sweepMatchesCold(t *testing.T, sw *scenario.Sweep, shards int, o ObsOptions, wantShared []bool, render func(*scenario.Report) string) {
	t.Helper()
	rep, err := RunSweepExec(sw, shards, o)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := sw.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for i, rv := range resolved {
		vr := rep.Results[i]
		if vr.SharedPrefix != wantShared[i] {
			t.Fatalf("shards=%d variant %q: shared prefix = %v, want %v", shards, vr.Name, vr.SharedPrefix, wantShared[i])
		}
		cold, err := runSim(rv.Scenario, shards, o)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := render(vr.Report), render(cold); got != want {
			t.Fatalf("shards=%d variant %q: forked branch diverges from its own run:\n%s", shards, vr.Name, repo.FirstDiff(want, got))
		}
	}
}

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
	sweepMatchesCold(t, sw, 2, ObsOptions{}, []bool{true, true, true},
		func(r *scenario.Report) string { return r.TraceText() + r.String() })
}

// TestSweepObsMatchesCold is the same gate with the obs plane on: the books
// fork with the run, so every variant's full obs output — exposition,
// events, spans, per-phase histograms and series, scheduler families — is
// what the variant reports run on its own, at any shard count. The worked
// example forks at the settle boundary; the second sweep forks after a
// workload phase, so the checkpoint carries live books (tallies, spans,
// series points) and intra-phase samples straddle it.
func TestSweepObsMatchesCold(t *testing.T) {
	example, err := scenario.LoadSweep(repo.Path("examples", "scenarios", "churn-sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	warm := sweepBase()
	warm.Phases = []scenario.Phase{
		{
			Name:      "warm",
			Duration:  scenario.Duration(10 * time.Second),
			Workload:  &scenario.Workload{Kind: scenario.WlLookups, Rate: 2},
			ForkPoint: true,
		},
		warm.Phases[0],
	}
	forkPhase := &scenario.Sweep{
		Name: "obs-fork-phase",
		Base: warm,
		Variants: []scenario.SweepVariant{
			{Name: "calm", ChurnRate: 0.02},
			{Name: "busy", WorkloadRate: 6},
			{Name: "alone", Seed: 99},
		},
	}
	render := func(r *scenario.Report) string {
		b, err := metrics.ReportToJSON(r)
		if err != nil {
			t.Fatal(err)
		}
		return r.VerboseString() + r.ObsText() + string(b)
	}
	for _, shards := range []int{1, 2, 4} {
		sweepMatchesCold(t, example, shards, ObsOptions{Enabled: true}, []bool{true, true, true, true}, render)
		sweepMatchesCold(t, forkPhase, shards, ObsOptions{Enabled: true, TraceSample: 2, SeriesInterval: 3 * time.Second},
			[]bool{true, true, false}, render)
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

// TestSweepParamsRunCold: variants that differ only in params — and one
// that differs only in nodes — each change the prefix, so each runs cold,
// and each comes out byte-identical to its own standalone run.
func TestSweepParamsRunCold(t *testing.T) {
	sw := &scenario.Sweep{
		Name: "params",
		Base: sweepBase(),
		Variants: []scenario.SweepVariant{
			{Name: "fix-1s", Params: map[string]int{"fix_ms": 1000}},
			{Name: "fix-20s", Params: map[string]int{"fix_ms": 20000}},
			{Name: "lsd", Params: map[string]int{"fix_adaptive": 1}},
			{Name: "fix-20s-12", Nodes: 12, Params: map[string]int{"fix_ms": 20000}},
		},
	}
	render := func(r *scenario.Report) string { return r.VerboseString() + r.TraceText() }
	sweepMatchesCold(t, sw, 2, ObsOptions{}, []bool{false, false, false, false}, render)
	rep, err := RunSweep(sw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups != 4 {
		t.Fatalf("%d prefix groups, want 4", rep.Groups)
	}
	if a, b := render(rep.Results[0].Report), render(rep.Results[1].Report); a == b {
		t.Fatal("fix_ms 1000 and 20000 ran identically: the param never reached the agents")
	}
	if n := rep.Results[3].Report.Nodes; n != 12 {
		t.Fatalf("nodes override lost: %d", n)
	}
}

// TestUnknownParamFailsBeforeRun: a param no layer of the stack declares is
// an error naming the param and the protocol, from the sweep's resolution
// (before any group runs) and from a lone scenario's run.
func TestUnknownParamFailsBeforeRun(t *testing.T) {
	sw := &scenario.Sweep{
		Name: "bad-param",
		Base: sweepBase(),
		Variants: []scenario.SweepVariant{
			{Name: "fine", Params: map[string]int{"fix_ms": 2000}},
			{Name: "typo", Params: map[string]int{"fix_msec": 2000}},
		},
	}
	_, err := RunSweep(sw, 1)
	if err == nil || !strings.HasPrefix(err.Error(), `sweep variant "typo"`) ||
		!strings.Contains(err.Error(), `"fix_msec"`) || !strings.Contains(err.Error(), `"chord"`) {
		t.Fatalf("RunSweep error = %v, want the variant, the param and the protocol named", err)
	}
	s := sweepBase()
	s.Protocol = "scribe"
	s.Params = map[string]int{"fix_ms": 1000} // Chord's, not Pastry's or Scribe's
	if _, err := RunScenarioExec(&s, ExecOptions{}); err == nil || !strings.Contains(err.Error(), `"fix_ms"`) {
		t.Fatalf("RunScenarioExec error = %v, want the param named", err)
	}
	s.Params = map[string]int{"cache_ms": 5000} // Pastry's, under Scribe
	if _, err := StackWithParams(s.Protocol, s.Params); err != nil {
		t.Fatalf("a param of the stack's base layer: %v", err)
	}
}
