package harness

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"macedon/internal/metrics"
	"macedon/internal/scenario"
)

// TestScheduledOpsQueueNothing: a schedule is walked, not queued. With setup
// and every phase of an 11,000-op lookup stream scheduled on four nodes, the
// heaps hold one harness record — the cursor — building the cue list costs
// under 0.01 allocations a cue, and the pending count the obs plane reports
// is the unfired cues plus whatever the nodes have queued themselves.
func TestScheduledOpsQueueNothing(t *testing.T) {
	s := &scenario.Scenario{
		Name: "walked-schedule", Seed: 2004, Nodes: 4, Routers: 20, Protocol: "chord",
		Settle: scenario.Duration(10 * time.Second),
		Drain:  scenario.Duration(time.Second),
		Phases: []scenario.Phase{{
			Name:     "stream",
			Duration: scenario.Duration(20 * time.Second),
			Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 550},
		}},
	}
	sched, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Lookups < 10000 {
		t.Fatalf("the schedule issues %d lookups, want at least 10,000", sched.Lookups)
	}
	r, err := newSimRun(sched, ExecOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.c.StopAll()

	before := r.c.Sched.Pending()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.scheduleSetup()
	r.schedulePhases(0, len(sched.Phases)-1)
	r.arm(0)
	runtime.ReadMemStats(&m1)
	cues := len(r.cues)
	if cues < sched.Lookups {
		t.Fatalf("%d cues for %d lookups", cues, sched.Lookups)
	}
	if got := r.c.Sched.Pending() - before; got != 1 {
		t.Errorf("the heaps hold %d harness records, want the cursor's one", got)
	}
	per := float64(m1.Mallocs-m0.Mallocs) / float64(cues)
	t.Logf("%d cues, %d mallocs (%.4f a cue)", cues, m1.Mallocs-m0.Mallocs, per)
	if !raceEnabled && per >= 0.01 {
		t.Errorf("scheduling allocates %.4f times a cue, budget 0.01", per)
	}
	if got, want := r.pending(), cues+before; got != want {
		t.Errorf("pending = %d, want the %d unfired cues plus %d queued events", got, cues, before)
	}

	// Partway into the stream the nodes run timers and carry packets of
	// their own; the cursor still stands for the first unfired cue.
	r.c.RunFor(sched.Phases[0].Start + 5*time.Second)
	if r.next == 0 || r.next == cues {
		t.Fatalf("cursor at cue %d of %d, want partway", r.next, cues)
	}
	nodeEvents := r.c.Sched.Pending() - 1
	if got, want := r.pending(), cues-r.next+nodeEvents; got != want {
		t.Errorf("pending = %d, want %d unfired cues plus %d node events", got, cues-r.next, nodeEvents)
	}
	r.c.RunFor(sched.Total - r.c.Sched.Elapsed())
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.next != cues {
		t.Errorf("the run ended with %d of %d cues fired", r.next, cues)
	}
	if rep := r.eng.Report(); rep.Phases[0].OpsSent != sched.Lookups {
		t.Errorf("sent %d of %d lookups", rep.Phases[0].OpsSent, sched.Lookups)
	}
}

// TestCueListRewindsPerBranch forks one prefix, setup and a first phase,
// into three variants whose tails differ in length — a longer one with an
// extra phase, then the base, then a shorter one — at two shards with the
// obs plane sampling between boundaries. Every branch must report exactly what the variant
// reports run on its own, the pending column and heap depth included: a
// branch that walked the cues a previous branch appended, or missed the
// prefix's unfired ones, would not.
func TestCueListRewindsPerBranch(t *testing.T) {
	forked := func() *scenario.Scenario {
		s := testScenario()
		s.Phases[0].ForkPoint = true
		return s
	}
	base, longer, shorter := forked(), forked(), forked()
	longer.Phases = append(longer.Phases, scenario.Phase{
		Name:     "extra",
		Duration: scenario.Duration(20 * time.Second),
		Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 2},
	})
	shorter.Phases = shorter.Phases[:2]
	exec := ExecOptions{Shards: 2, Obs: ObsOptions{Enabled: true, SeriesInterval: 7 * time.Second}}
	render := func(r *scenario.Report) string {
		b, err := metrics.ReportToJSON(r)
		if err != nil {
			t.Fatal(err)
		}
		return r.VerboseString() + r.TraceText() + r.ObsText() + string(b)
	}

	var vs []forkVariant
	for _, s := range []*scenario.Scenario{longer, base, shorter} {
		sched, err := scenario.Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, forkVariant{name: fmt.Sprintf("%d phases", len(s.Phases)), sched: sched})
	}
	forkPhase := base.ForkPhase()
	reps, _, err := runGroup(vs, exec, forkPhase)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		cold, _, err := runGroup([]forkVariant{v}, exec, forkPhase)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := render(reps[i]), render(cold[0]); got != want {
			t.Errorf("branch %s differs from its cold run:\n%s\nvs\n%s", v.name, got, want)
		}
	}
}
