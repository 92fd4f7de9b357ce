package deploy

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"macedon/internal/check"
	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/obs"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
)

// recorder records what a walk fires; failAt > 0 makes the failAt-th event,
// an op, fail with errBoom (after recording it).
type recorder struct {
	events []string
	failAt int
}

var errBoom = errors.New("boom")

func (r *recorder) apply(op scenario.Op) error {
	r.events = append(r.events, fmt.Sprintf("op:%s@%s", op.Kind, op.At))
	if len(r.events) == r.failAt {
		return errBoom
	}
	return nil
}

func (r *recorder) boundary(c scenario.Cue) {
	if c.Kind == scenario.CueSettleEnd {
		r.events = append(r.events, "settle")
	} else {
		r.events = append(r.events, fmt.Sprintf("phase:%d", c.I))
	}
}

// TestCueWalkOrder compresses a small scenario heavily and checks the
// wall-clock walk fires ops and boundaries in the cue order: setup ops,
// settle, each phase's ops then its end marker.
func TestCueWalkOrder(t *testing.T) {
	s := &scenario.Scenario{
		Name:     "wall-order",
		Seed:     5,
		Nodes:    3,
		Protocol: "chord",
		Settle:   scenario.Duration(2 * time.Second),
		Drain:    scenario.Duration(500 * time.Millisecond),
		Phases: []scenario.Phase{
			{
				Name:     "one",
				Duration: scenario.Duration(2 * time.Second),
				Events:   []scenario.Event{{At: scenario.Duration(time.Second), Kind: scenario.EvKill, Node: 1}},
			},
			{
				Name:     "two",
				Duration: scenario.Duration(2 * time.Second),
				Events:   []scenario.Event{{At: scenario.Duration(time.Second), Kind: scenario.EvRevive, Node: 1}},
			},
		},
	}
	sched, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	start := time.Now()
	if err := walk(context.Background(), sched, 50, rec.apply, rec.boundary); err != nil {
		t.Fatal(err)
	}
	// 6.5 virtual seconds at 50x is 130ms; the walk must compress.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("50x run took %v", elapsed)
	}
	want := []string{
		"op:spawn@0s", "op:spawn@0s", "op:spawn@0s",
		"settle",
		"op:kill@3s", "phase:0",
		"op:revive@5s", "phase:1",
	}
	if !slices.Equal(rec.events, want) {
		t.Fatalf("events = %v, want %v", rec.events, want)
	}
}

// TestCueWalkCancel: a cancelled context aborts the walk promptly.
func TestCueWalkCancel(t *testing.T) {
	s := &scenario.Scenario{
		Name: "wall-cancel", Seed: 5, Nodes: 2, Protocol: "chord",
		Settle: scenario.Duration(time.Hour),
		Phases: []scenario.Phase{{Name: "p", Duration: scenario.Duration(time.Hour)}},
	}
	sched, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(50 * time.Millisecond); cancel() }()
	start := time.Now()
	rec := &recorder{}
	if err := walk(ctx, sched, 1, rec.apply, rec.boundary); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled walk returned %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not abort promptly")
	}
}

// TestCueWalkStopsAtFirstError: the k-th op fails (an agent that would not
// launch) inside a same-instant run of spawns; the walk returns that error
// at once and applies nothing after it — not the rest of the run, and not
// the hour-long remainder of the schedule.
func TestCueWalkStopsAtFirstError(t *testing.T) {
	s := &scenario.Scenario{
		Name: "wall-fail", Seed: 5, Nodes: 4, Protocol: "chord",
		Settle: scenario.Duration(time.Hour),
		Phases: []scenario.Phase{{Name: "p", Duration: scenario.Duration(time.Hour)}},
	}
	sched, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{failAt: 2}
	start := time.Now()
	if err := walk(context.Background(), sched, 1, rec.apply, rec.boundary); !errors.Is(err, errBoom) {
		t.Fatalf("walk = %v, want the op's error", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("walk did not return promptly")
	}
	if want := []string{"op:spawn@0s", "op:spawn@0s"}; !slices.Equal(rec.events, want) {
		t.Errorf("events = %v, want %v: ops were applied after the failure", rec.events, want)
	}
}

// bookBackend is the least a scenario.Engine needs to book a walk: a clock
// the walk sets, and nodes that start and stop at once and carry nothing.
type bookBackend struct{ now time.Duration }

func (b *bookBackend) Now() time.Duration                    { return b.now }
func (b *bookBackend) Spawn(int, bool) (string, error)       { return "", nil }
func (b *bookBackend) Kill(int) string                       { return "" }
func (b *bookBackend) Shape(scenario.Op) string              { return "" }
func (b *bookBackend) Inject(scenario.Op)                    {}
func (b *bookBackend) Counters() core.Counters               { return core.Counters{} }
func (b *bookBackend) NetStats() simnet.Stats                { return simnet.Stats{} }
func (b *bookBackend) NodeState(int) (check.NodeState, bool) { return check.NodeState{}, false }
func (b *bookBackend) Routing() string                       { return "" }
func (b *bookBackend) Families(*obs.Registry)                {}

// TestCueOrderAtPhaseBoundaries: an op due at the instant one phase ends
// and the next starts — a phase event at "0s", a wave-churn revive one
// downtime after a kill — belongs to the phase it starts. The cue order
// fires it after the previous phase's end, the live walk fires the cues in
// that order, and booked on an engine the walk reports what the emulator
// does: the same op trace and the same live population at every phase end.
func TestCueOrderAtPhaseBoundaries(t *testing.T) {
	sec := func(n int) scenario.Duration { return scenario.Duration(time.Duration(n) * time.Second) }
	for _, c := range []struct {
		name   string
		phases []scenario.Phase
		kind   scenario.OpKind // of the op due as phase 0 ends
	}{
		{"phase event at 0s", []scenario.Phase{
			{Name: "before", Duration: sec(10)},
			{Name: "after", Duration: sec(10), Events: []scenario.Event{{At: 0, Kind: scenario.EvKill, Node: 2}}},
		}, scenario.OpKill},
		{"wave revive on a phase end", []scenario.Phase{
			{Name: "wave", Duration: sec(20), Churn: &scenario.Churn{Model: "wave", Kill: 1, Period: sec(10), Downtime: sec(10)}},
			{Name: "after", Duration: sec(10)},
		}, scenario.OpRevive},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := &scenario.Scenario{
				Name: "boundary", Seed: 5, Nodes: 4, Protocol: "chord",
				Settle: sec(5), Drain: sec(1), Phases: c.phases,
			}
			sched, err := scenario.Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(sched.Ops, func(op scenario.Op) bool {
				return op.Kind == c.kind && op.At == sched.Phases[0].End && op.Phase == 1
			}) {
				t.Fatalf("no %s of phase 1 at %s in %v", c.kind, sched.Phases[0].End, sched.Ops)
			}

			var want []string
			ended := -1
			for cue := range sched.Cues(-1, len(sched.Phases)-1) {
				switch cue.Kind {
				case scenario.CueOps:
					for _, op := range sched.Ops[cue.I:cue.J] {
						if op.Phase >= 0 && ended != op.Phase-1 {
							t.Errorf("%s node %d at %s, an op of phase %d, fires after the end of phase %d", op.Kind, op.Node, op.At, op.Phase, ended)
						}
						want = append(want, fmt.Sprintf("op:%s@%s", op.Kind, op.At))
					}
				case scenario.CueSettleEnd:
					want = append(want, "settle")
				case scenario.CuePhaseEnd:
					ended = cue.I
					want = append(want, fmt.Sprintf("phase:%d", cue.I))
				}
			}

			addrs, err := harness.TopologyAddrs(s.Nodes, s.Routers, s.Seed)
			if err != nil {
				t.Fatal(err)
			}
			b := &bookBackend{}
			eng, err := scenario.NewEngine(sched, b, scenario.EngineConfig{Addrs: addrs})
			if err != nil {
				t.Fatal(err)
			}
			rec := &recorder{}
			apply := func(op scenario.Op) error {
				b.now = op.At
				_ = rec.apply(op)
				return eng.Apply(op)
			}
			boundary := func(cue scenario.Cue) {
				b.now = cue.At
				rec.boundary(cue)
				if cue.Kind == scenario.CueSettleEnd {
					eng.SettleEnd()
				} else {
					eng.PhaseEnd(cue.I)
				}
			}
			if err := walk(context.Background(), sched, 1000, apply, boundary); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rec.events, want) {
				t.Errorf("the walk fired %v, want the cue order %v", rec.events, want)
			}

			sim, err := harness.RunScenarioExec(s, harness.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			live := eng.Report()
			if !slices.Equal(live.Trace, sim.Trace) {
				t.Errorf("the walk's trace\n%v\ndiffers from the emulator's\n%v", live.Trace, sim.Trace)
			}
			for pi := range sim.Phases {
				if got, want := live.Phases[pi].LiveNodes, sim.Phases[pi].LiveNodes; got != want {
					t.Errorf("phase %d ends with %d live nodes on the walk, %d on the emulator", pi, got, want)
				}
			}
		})
	}
}
