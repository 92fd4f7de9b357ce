package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"macedon/internal/check"
	"macedon/internal/core"
	"macedon/internal/obs"
	"macedon/internal/overlay"
	"macedon/internal/simnet"
)

// fakeBackend is an in-memory Backend: a settable clock, a call log, canned
// counters and routing states. No simulator, no processes.
type fakeBackend struct {
	now       time.Duration
	calls     []string
	spawnErr  error
	ctl       core.Counters
	net       simnet.Stats
	states    map[int]check.NodeState
	withExtra bool // return backend detail strings, like the live controller
}

func (f *fakeBackend) Now() time.Duration { return f.now }

func (f *fakeBackend) Spawn(node int, revive bool) (string, error) {
	f.calls = append(f.calls, fmt.Sprintf("spawn %d revive=%v", node, revive))
	if f.spawnErr != nil {
		return "", f.spawnErr
	}
	if f.withExtra {
		return " [pid 42]", nil
	}
	return "", nil
}

func (f *fakeBackend) Kill(node int) string {
	f.calls = append(f.calls, fmt.Sprintf("kill %d", node))
	if f.withExtra {
		return " [SIGKILL]"
	}
	return ""
}

func (f *fakeBackend) Shape(op Op) string {
	f.calls = append(f.calls, fmt.Sprintf("shape %s %d", op.Kind, op.Node))
	return ""
}

func (f *fakeBackend) Inject(op Op) {
	f.calls = append(f.calls, fmt.Sprintf("inject %s #%d", op.Kind, op.ID))
}

func (f *fakeBackend) Counters() core.Counters { return f.ctl }
func (f *fakeBackend) NetStats() simnet.Stats  { return f.net }

func (f *fakeBackend) NodeState(node int) (check.NodeState, bool) {
	st, ok := f.states[node]
	return st, ok
}

func (f *fakeBackend) Routing() string { return core.RoutingRing }

// Families contributes one family of the fake's own, so a test can see the
// hook ran.
func (f *fakeBackend) Families(reg *obs.Registry) {
	reg.Counter("fake_net_sent_total", "The fake's canned network total.").Store(f.net.Sent)
}

// fakeSchedule is a hand-built schedule of np 10-second phases after a 10 s
// settle; tests drive ops through Apply themselves.
func fakeSchedule(nodes, np int, checks ...string) *Schedule {
	s := &Scenario{Name: "fake", Seed: 7, Nodes: nodes, Protocol: "chord"}
	if len(checks) > 0 {
		s.Checks = &ChecksSpec{Names: checks, Grace: Duration(5 * time.Second)}
	}
	// Workload op IDs 0..9 exist, so the obs books size their per-op tallies.
	sched := &Schedule{Scenario: s, Settle: 10 * time.Second, Lookups: 10}
	for pi := 0; pi < np; pi++ {
		start := sched.Settle + time.Duration(pi)*10*time.Second
		name := fmt.Sprintf("p%d", pi)
		s.Phases = append(s.Phases, Phase{Name: name, Duration: Duration(10 * time.Second), Workload: &Workload{Kind: WlLookups, Rate: 1}})
		sched.Phases = append(sched.Phases, CompiledPhase{Name: name, Start: start, End: start + 10*time.Second})
	}
	sched.End = sched.Phases[np-1].End
	sched.Total = sched.End + 5*time.Second
	return sched
}

func fakeAddrs(n int) []overlay.Address {
	addrs := make([]overlay.Address, n)
	for i := range addrs {
		addrs[i] = overlay.Address(100 + i)
	}
	return addrs
}

func newFakeEngine(t *testing.T, sched *Schedule, b *fakeBackend, shards int, obsOn bool) *Engine {
	t.Helper()
	cfg := EngineConfig{Addrs: fakeAddrs(sched.Scenario.Nodes), Shards: shards}
	if obsOn {
		cfg.Obs = &ObsConfig{}
	}
	e, err := NewEngine(sched, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustApply(t *testing.T, e *Engine, b *fakeBackend, at time.Duration, op Op) {
	t.Helper()
	b.now = at
	if err := e.Apply(op); err != nil {
		t.Fatalf("apply %s: %v", op.Kind, err)
	}
}

func lastTrace(e *Engine) string {
	tr := e.acct.trace
	return strings.TrimSpace(tr[len(tr)-1][len("t=    00.000s"):])
}

// TestEngineApplyEveryOpKind drives each op kind through a fresh engine
// (after a setup sequence) and pins the trace line — the emulator's
// golden-pinned wording — the backend primitive reached, and the liveness,
// age and flag transitions.
func TestEngineApplyEveryOpKind(t *testing.T) {
	const at = 3 * time.Second
	spawn1 := Op{Kind: OpSpawn, Node: 1}
	cases := []struct {
		name   string
		setup  []Op
		op     Op
		trace  string
		call   string // "" = the backend must not be called
		verify func(t *testing.T, a *Accounting)
	}{
		{"spawn", nil, Op{Kind: OpSpawn, Node: 1},
			"spawn node 1 (0.0.0.101)", "spawn 1 revive=false",
			func(t *testing.T, a *Accounting) {
				if !a.nodes[1].alive || a.nodes[1].upAt != at {
					t.Errorf("alive=%v upAt=%v", a.nodes[1].alive, a.nodes[1].upAt)
				}
			}},
		{"spawn already up", []Op{spawn1}, Op{Kind: OpSpawn, Node: 1},
			"spawn node 1 skipped (already up)", "",
			func(t *testing.T, a *Accounting) {
				if a.nodes[1].upAt != time.Second {
					t.Errorf("a skipped spawn restamped upAt to %v", a.nodes[1].upAt)
				}
			}},
		{"kill", []Op{spawn1}, Op{Kind: OpKill, Node: 1},
			"kill node 1 (0.0.0.101)", "kill 1",
			func(t *testing.T, a *Accounting) {
				if a.nodes[1].alive || a.nodes[1].downAt != at {
					t.Errorf("alive=%v downAt=%v", a.nodes[1].alive, a.nodes[1].downAt)
				}
			}},
		{"kill already down", nil, Op{Kind: OpKill, Node: 1},
			"kill node 1 skipped (already down)", "", nil},
		{"revive", nil, Op{Kind: OpRevive, Node: 1},
			"revive node 1 (0.0.0.101)", "spawn 1 revive=true",
			func(t *testing.T, a *Accounting) {
				if !a.nodes[1].alive || a.nodes[1].upAt != at {
					t.Errorf("alive=%v upAt=%v", a.nodes[1].alive, a.nodes[1].upAt)
				}
			}},
		{"revive already up", []Op{spawn1}, Op{Kind: OpRevive, Node: 1},
			"revive node 1 skipped (already up)", "", nil},
		{"node_down", nil, Op{Kind: OpNodeDown, Node: 2},
			"node_down node 2 (0.0.0.102)", "shape node_down 2",
			func(t *testing.T, a *Accounting) {
				if !a.nodes[2].hostDown || a.nodes[2].connAt != at || a.nodes[1].connAt != 0 {
					t.Errorf("nodes=%+v", a.nodes)
				}
			}},
		{"node_up", []Op{{Kind: OpNodeDown, Node: 2}}, Op{Kind: OpNodeUp, Node: 2},
			"node_up node 2 (0.0.0.102)", "shape node_up 2",
			func(t *testing.T, a *Accounting) {
				if a.nodes[2].hostDown || a.nodes[2].connAt != at {
					t.Errorf("hostDown=%v connAt=%v", a.nodes[2].hostDown, a.nodes[2].connAt)
				}
			}},
		{"link_down", nil, Op{Kind: OpLinkDown, Node: 2},
			"link_down node 2", "shape link_down 2",
			func(t *testing.T, a *Accounting) {
				if !a.nodes[2].linkDown || a.nodes[2].hostDown || a.nodes[2].connAt != at {
					t.Errorf("linkDown=%v hostDown=%v connAt=%v", a.nodes[2].linkDown, a.nodes[2].hostDown, a.nodes[2].connAt)
				}
			}},
		{"link_up", []Op{{Kind: OpLinkDown, Node: 2}}, Op{Kind: OpLinkUp, Node: 2},
			"link_up node 2", "shape link_up 2",
			func(t *testing.T, a *Accounting) {
				if a.nodes[2].linkDown {
					t.Error("link still down")
				}
			}},
		{"degrade", nil, Op{Kind: OpDegrade, Node: 2, LatencyFactor: 4, Loss: 0.05},
			"degrade node 2 (latency x4.0, loss 0.05)", "shape degrade 2",
			func(t *testing.T, a *Accounting) {
				if !a.nodes[2].degraded || a.nodes[2].connAt != at {
					t.Errorf("degraded=%v connAt=%v", a.nodes[2].degraded, a.nodes[2].connAt)
				}
			}},
		{"restore", []Op{{Kind: OpDegrade, Node: 2, LatencyFactor: 4}}, Op{Kind: OpRestore, Node: 2},
			"restore node 2", "shape restore 2",
			func(t *testing.T, a *Accounting) {
				if a.nodes[2].degraded {
					t.Error("still degraded")
				}
			}},
		{"partition", nil, Op{Kind: OpPartition, SideA: 2},
			"partition [0..2) | [2..4)", "shape partition 0",
			func(t *testing.T, a *Accounting) {
				if !a.partitioned || a.nodes[0].connAt != at || a.nodes[3].connAt != at {
					t.Errorf("partitioned=%v nodes=%+v", a.partitioned, a.nodes)
				}
			}},
		{"heal", []Op{{Kind: OpPartition, SideA: 2}}, Op{Kind: OpHeal},
			"heal partition", "shape heal 0",
			func(t *testing.T, a *Accounting) {
				if a.partitioned || a.nodes[3].connAt != at {
					t.Errorf("partitioned=%v nodes=%+v", a.partitioned, a.nodes)
				}
			}},
		{"lookup", []Op{spawn1}, Op{Kind: OpLookup, Node: 1, ID: 5, Phase: 1},
			"spawn node 1 (0.0.0.101)", "inject lookup #5", // a sent op adds no trace line
			func(t *testing.T, a *Accounting) {
				if a.rows[1].Sent != 1 || a.sent[5] != (sendStamp{at: at, phase: 1, sent: true}) {
					t.Errorf("rows=%+v sent=%+v", a.rows[1], a.sent)
				}
				for id, st := range a.sent {
					if id != 5 && st.sent {
						t.Errorf("op %d stamped sent: %+v", id, st)
					}
				}
			}},
		{"multicast", []Op{spawn1}, Op{Kind: OpMulticast, Node: 1, ID: 6, Phase: 0},
			"spawn node 1 (0.0.0.101)", "inject multicast #6",
			func(t *testing.T, a *Accounting) {
				if a.rows[0].Sent != 1 {
					t.Errorf("rows=%+v", a.rows[0])
				}
			}},
		{"lookup from a down node", nil, Op{Kind: OpLookup, Node: 1, ID: 5, Phase: 1},
			"lookup #5 skipped (node 1 down)", "",
			func(t *testing.T, a *Accounting) {
				if a.rows[1].Skipped != 1 || a.rows[1].Sent != 0 {
					t.Errorf("rows=%+v", a.rows[1])
				}
				for id, st := range a.sent {
					if st.sent {
						t.Errorf("op %d stamped sent: %+v", id, st)
					}
				}
			}},
		{"multicast from a down node", nil, Op{Kind: OpMulticast, Node: 1, ID: 6, Phase: 0},
			"multicast #6 skipped (node 1 down)", "", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := &fakeBackend{}
			e := newFakeEngine(t, fakeSchedule(4, 2), b, 1, false)
			for _, op := range tc.setup {
				mustApply(t, e, b, time.Second, op)
			}
			b.calls = nil
			mustApply(t, e, b, at, tc.op)
			if got := lastTrace(e); got != tc.trace {
				t.Errorf("trace = %q, want %q", got, tc.trace)
			}
			if got := strings.Join(b.calls, "; "); got != tc.call {
				t.Errorf("backend calls = %q, want %q", got, tc.call)
			}
			if want := len(tc.setup) + 1; e.acct.eventsRun != want {
				t.Errorf("eventsRun = %d, want %d", e.acct.eventsRun, want)
			}
			if tc.verify != nil {
				tc.verify(t, &e.acct)
			}
		})
	}
}

// TestEngineBackendDetailAndSpawnError: a backend's detail lands after the
// pinned wording, and a failed launch comes back as the error, wrapped with
// the op it belongs to, with the node still down and nothing traced for it.
func TestEngineBackendDetailAndSpawnError(t *testing.T) {
	b := &fakeBackend{withExtra: true}
	e := newFakeEngine(t, fakeSchedule(3, 1), b, 1, false)
	mustApply(t, e, b, 0, Op{Kind: OpSpawn, Node: 0})
	if got, want := lastTrace(e), "spawn node 0 (0.0.0.100) [pid 42]"; got != want {
		t.Errorf("trace = %q, want %q", got, want)
	}
	mustApply(t, e, b, time.Second, Op{Kind: OpKill, Node: 0})
	if got, want := lastTrace(e), "kill node 0 (0.0.0.100) [SIGKILL]"; got != want {
		t.Errorf("trace = %q, want %q", got, want)
	}
	b.spawnErr = errors.New("exec: no such file")
	err := e.Apply(Op{At: 2 * time.Second, Kind: OpSpawn, Node: 1})
	if want := "scenario: spawn node 1 at 2s: exec: no such file"; !errors.Is(err, b.spawnErr) || err.Error() != want {
		t.Fatalf("Apply = %v, want %q wrapping the backend's error", err, want)
	}
	if e.Alive(1) || len(e.acct.trace) != 2 {
		t.Errorf("after a failed spawn: alive=%v trace=%v", e.Alive(1), e.acct.trace)
	}
}

// TestEngineSkipEvent: a workload op on a down node emits exactly the skip
// event and bumps the skipped counter; nothing is injected.
func TestEngineSkipEvent(t *testing.T) {
	b := &fakeBackend{}
	e := newFakeEngine(t, fakeSchedule(3, 1), b, 1, true)
	mustApply(t, e, b, 12*time.Second, Op{Kind: OpLookup, Node: 2, ID: 3, Phase: 0})
	rep := e.Report()
	want := []string{"t=12.000000s lvl=warn ev=skip kind=lookup op=3 node=2"}
	if !reflect.DeepEqual(rep.Obs.Events, want) {
		t.Errorf("events = %q, want %q", rep.Obs.Events, want)
	}
	if !strings.Contains(rep.Obs.Exposition, "macedon_ops_skipped_total 1\n") ||
		!strings.Contains(rep.Obs.Exposition, `macedon_ops_total{kind="lookup"} 0`) {
		t.Errorf("exposition:\n%s", rep.Obs.Exposition)
	}
	if rep.Phases[0].OpsSkipped != 1 || len(rep.Obs.Spans) != 0 || len(b.calls) != 0 {
		t.Errorf("skipped=%d spans=%v calls=%v", rep.Phases[0].OpsSkipped, rep.Obs.Spans, b.calls)
	}
}

// playWorkload issues one lookup per phase, then reports deliveries and
// forwards through shardOf(i) — late ones included: op 0 is delivered while
// phase 1 is already running and must still count for phase 0.
func playWorkload(t *testing.T, e *Engine, b *fakeBackend, shardOf func(i int) int) {
	t.Helper()
	for n := 0; n < 4; n++ {
		mustApply(t, e, b, 0, Op{Kind: OpSpawn, Node: n})
	}
	mustApply(t, e, b, 11*time.Second, Op{Kind: OpLookup, Node: 0, ID: 0, Phase: 0})
	mustApply(t, e, b, 21*time.Second, Op{Kind: OpLookup, Node: 1, ID: 1, Phase: 1})
	hops := []struct {
		op, node int
		fwd      bool
		at       time.Duration
	}{
		{1, 2, true, 21010 * time.Millisecond},
		{1, 3, false, 21030 * time.Millisecond},
		{0, 1, true, 22 * time.Second},
		{0, 2, true, 22100 * time.Millisecond},
		{0, 3, false, 22200 * time.Millisecond},
		{9, 3, false, 23 * time.Second}, // never sent: ignored
	}
	for i, h := range hops {
		if h.fwd {
			e.Forward(h.op, h.node, overlay.Address(100+h.node+1), shardOf(i), h.at)
		} else {
			e.Deliver(h.op, h.node, shardOf(i), h.at)
		}
	}
	b.now = 30 * time.Second
}

// TestEngineIgnoresUnknownOpIDs: a delivery or forward whose ID is negative,
// past the schedule's workload ops, of an op skipped because its node was
// down, or of one never sent is not counted anywhere, obs books included,
// and does not panic on the dense stamp array.
func TestEngineIgnoresUnknownOpIDs(t *testing.T) {
	b := &fakeBackend{}
	e := newFakeEngine(t, fakeSchedule(4, 2), b, 2, true)
	mustApply(t, e, b, 0, Op{Kind: OpSpawn, Node: 0})
	mustApply(t, e, b, 11*time.Second, Op{Kind: OpLookup, Node: 2, ID: 3, Phase: 0}) // skipped: node 2 is down
	mustApply(t, e, b, 12*time.Second, Op{Kind: OpLookup, Node: 0, ID: 4, Phase: 0})
	before := e.Report()
	for _, id := range []int{-1, -1 << 40, e.sched.workloadOps(), e.sched.workloadOps() + 7, 1 << 40, 3, 7} {
		for sh := 0; sh < 2; sh++ {
			e.Forward(id, 1, overlay.Address(102), sh, 13*time.Second)
			e.Deliver(id, 2, sh, 13*time.Second)
		}
	}
	after := e.Report()
	if !reflect.DeepEqual(before, after) {
		t.Errorf("unknown op IDs changed the report:\n%s%s\nvs\n%s%s",
			before.VerboseString(), before.ObsText(), after.VerboseString(), after.ObsText())
	}
	// The sent op still counts.
	e.Deliver(4, 2, 1, 13*time.Second)
	if p := e.Report().Phases[0]; p.OpsDelivered != 1 || p.OpsSkipped != 1 || p.MeanLatency != time.Second {
		t.Errorf("phase 0 = %+v", p)
	}
}

// TestEngineAttributionAndShardInvariance: deliveries and forwards belong
// to the phase that ISSUED the op, and the report — obs sections included —
// is the same whichever shard rows they were reported on.
func TestEngineAttributionAndShardInvariance(t *testing.T) {
	run := func(shardOf func(int) int) *Report {
		b := &fakeBackend{}
		e := newFakeEngine(t, fakeSchedule(4, 2), b, 4, true)
		playWorkload(t, e, b, shardOf)
		return e.Report()
	}
	one := run(func(int) int { return 0 })
	p0, p1 := one.Phases[0], one.Phases[1]
	if p0.OpsSent != 1 || p0.OpsDelivered != 1 || p0.OpsForwarded != 2 || p0.MeanLatency != 11200*time.Millisecond || p0.MeanHops != 3 {
		t.Errorf("phase 0 = %+v", p0)
	}
	if p1.OpsSent != 1 || p1.OpsDelivered != 1 || p1.OpsForwarded != 1 || p1.MeanLatency != 30*time.Millisecond || p1.MeanHops != 2 {
		t.Errorf("phase 1 = %+v", p1)
	}
	if p0.Obs.Latency.Count != 1 || p1.Obs.Hops.Count != 1 {
		t.Errorf("per-phase histograms: %v / %v", p0.Obs.Latency, p1.Obs.Hops)
	}
	for name, shardOf := range map[string]func(int) int{
		"spread":   func(i int) int { return i % 4 },
		"reversed": func(i int) int { return 3 - i%4 },
	} {
		got := run(shardOf)
		if !reflect.DeepEqual(got, one) {
			t.Errorf("%s: report differs from the single-row run:\n%s\n%s\nvs\n%s\n%s",
				name, got.VerboseString(), got.ObsText(), one.VerboseString(), one.ObsText())
		}
	}
}

// TestEngineConcurrentShards is the engine's only cross-goroutine surface:
// Deliver and Forward from one goroutine per shard, each on its own row,
// with the obs plane recording. Run under -race (CI race lane).
func TestEngineConcurrentShards(t *testing.T) {
	const shards, perShard = 4, 500
	b := &fakeBackend{}
	e := newFakeEngine(t, fakeSchedule(4, 2), b, shards, true)
	mustApply(t, e, b, 0, Op{Kind: OpSpawn, Node: 0})
	mustApply(t, e, b, 11*time.Second, Op{Kind: OpLookup, Node: 0, ID: 0, Phase: 0})
	mustApply(t, e, b, 21*time.Second, Op{Kind: OpLookup, Node: 0, ID: 1, Phase: 1})
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				e.Forward(i%2, sh, overlay.Address(100), sh, 22*time.Second)
				e.Deliver(i%2, sh, sh, 22*time.Second)
			}
		}(sh)
	}
	wg.Wait()
	rep := e.Report()
	for pi, p := range rep.Phases {
		if want := shards * perShard / 2; p.OpsDelivered != want || p.OpsForwarded != want || int(p.Obs.Latency.Count) != want {
			t.Errorf("phase %d: delivered=%d forwarded=%d observed=%d, want %d each",
				pi, p.OpsDelivered, p.OpsForwarded, p.Obs.Latency.Count, want)
		}
	}
	if want := 2 + 2*shards*perShard; len(rep.Obs.Spans) != want {
		t.Errorf("%d spans, want %d", len(rep.Obs.Spans), want)
	}
}

// TestEngineReportIdempotent: Report reads the books and changes nothing, so
// asking twice — as every branch of a group does — answers the same, the
// report-time hop histograms and the backend's families included.
func TestEngineReportIdempotent(t *testing.T) {
	b := &fakeBackend{net: simnet.Stats{Sent: 9}}
	e := newFakeEngine(t, fakeSchedule(4, 2), b, 2, true)
	playWorkload(t, e, b, func(i int) int { return i % 2 })
	first, second := e.Report(), e.Report()
	if first.ObsText() != second.ObsText() || first.VerboseString() != second.VerboseString() {
		t.Errorf("second Report differs:\n%s%s\nvs\n%s%s",
			first.VerboseString(), first.ObsText(), second.VerboseString(), second.ObsText())
	}
	if !strings.Contains(first.Obs.Exposition, "fake_net_sent_total 9\n") || first.Phases[0].Obs.Hops.Count != 1 {
		t.Errorf("hops=%v exposition:\n%s", first.Phases[0].Obs.Hops, first.Obs.Exposition)
	}
}

// TestEngineBranchRewind is the branch/rewind/re-branch property without a
// cluster: checkpoint after a prefix, run a tail, rewind, run a DIFFERENT
// (longer, with more workload ops) variant, rewind to one with fewer
// workload ops, rewind again and re-run the first tail — both variants keep
// the prefix's send stamps, the two runs of the same tail report
// identically, and equal a run that never branched. With the obs plane on
// the reports carry its sections — exposition, events, spans, histograms,
// series — so the books rewind with everything else.
func TestEngineBranchRewind(t *testing.T) {
	prefix := func(e *Engine, b *fakeBackend) {
		for n := 0; n < 4; n++ {
			mustApply(t, e, b, 0, Op{Kind: OpSpawn, Node: n})
		}
		b.now = 10 * time.Second
		b.net = simnet.Stats{Sent: 100, Delivered: 90}
		e.SettleEnd()
		e.Sample(0, 0)
		mustApply(t, e, b, 11*time.Second, Op{Kind: OpLookup, Node: 0, ID: 0, Phase: 0})
		e.Forward(0, 1, overlay.Address(103), 0, 11200*time.Millisecond)
		e.Deliver(0, 3, 0, 11500*time.Millisecond)
	}
	tail := func(e *Engine, b *fakeBackend) *Report {
		mustApply(t, e, b, 12*time.Second, Op{Kind: OpKill, Node: 2})
		mustApply(t, e, b, 13*time.Second, Op{Kind: OpLookup, Node: 2, ID: 1, Phase: 0})
		mustApply(t, e, b, 14*time.Second, Op{Kind: OpPartition, SideA: 2})
		b.now = 20 * time.Second
		b.net = simnet.Stats{Sent: 300, Delivered: 250}
		e.PhaseEnd(0)
		e.Sample(0, 10*time.Second)
		mustApply(t, e, b, 21*time.Second, Op{Kind: OpLookup, Node: 1, ID: 2, Phase: 1})
		e.Forward(2, 0, overlay.Address(103), 0, 21100*time.Millisecond)
		e.Deliver(2, 3, 0, 21200*time.Millisecond)
		b.now = 30 * time.Second
		e.PhaseEnd(1)
		e.Sample(1, 10*time.Second)
		return e.Report()
	}
	for _, obsOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("obs=%v", obsOn), func(t *testing.T) {
			base := fakeSchedule(4, 2, "synthetic-full-population")

			b := &fakeBackend{}
			e := newFakeEngine(t, base, b, 1, obsOn)
			prefix(e, b)
			at := e.Checkpoint()
			first := tail(e, b)

			// A dirty branch: three phases, more and different ops, different
			// checkers.
			variant := fakeSchedule(4, 3)
			variant.Lookups = 12
			if err := e.Branch(variant, at); err != nil {
				t.Fatal(err)
			}
			mustApply(t, e, b, 12*time.Second, Op{Kind: OpDegrade, Node: 1, LatencyFactor: 2})
			if len(e.acct.sent) != 12 || !e.acct.sent[0].sent || e.acct.sent[11].sent {
				t.Fatalf("stamps after branching to 12 ops: %+v", e.acct.sent)
			}
			mustApply(t, e, b, 35*time.Second, Op{Kind: OpLookup, Node: 3, ID: 11, Phase: 2})
			e.Deliver(11, 0, 0, 36*time.Second)
			e.PhaseEnd(2)
			e.Sample(2, 10*time.Second)
			dirty := e.Report()
			if len(dirty.Phases) != 3 || dirty.Phases[2].OpsSent != 1 || dirty.Phases[2].OpsDelivered != 1 || dirty.ChecksEnabled() {
				t.Fatalf("variant branch report: %s", dirty.VerboseString())
			}
			if obsOn && (dirty.Phases[2].Obs.Hops.Count != 1 || len(dirty.Phases[2].Obs.Series.Points) != 1 ||
				dirty.Phases[0].Obs.Latency.Count != 1 || len(dirty.Phases[0].Obs.Series.Points) != 1) {
				t.Fatalf("variant branch obs: %s", dirty.VerboseString())
			}

			// A variant with fewer workload ops than the base keeps the
			// prefix's stamp: op 0's late delivery still counts for phase 0.
			few := fakeSchedule(4, 2)
			few.Lookups = 2
			if err := e.Branch(few, at); err != nil {
				t.Fatal(err)
			}
			if len(e.acct.sent) != 2 || e.acct.sent[0] != (sendStamp{at: 11 * time.Second, phase: 0, sent: true}) || e.acct.sent[1].sent {
				t.Fatalf("stamps after branching to 2 ops: %+v", e.acct.sent)
			}
			e.Deliver(0, 2, 0, 12*time.Second)
			e.Deliver(5, 2, 0, 12*time.Second) // past the variant's ops
			if p := e.Report().Phases[0]; p.OpsDelivered != 2 || p.MeanLatency != 750*time.Millisecond {
				t.Fatalf("fewer-ops variant, phase 0 = %+v", p)
			}

			if err := e.Branch(base, at); err != nil {
				t.Fatal(err)
			}
			second := tail(e, b)
			if !reflect.DeepEqual(first, second) {
				t.Errorf("re-branch differs:\n%s%s%s\nvs\n%s%s%s", first.VerboseString(), first.TraceText(), first.ObsText(),
					second.VerboseString(), second.TraceText(), second.ObsText())
			}

			cb := &fakeBackend{}
			cold := newFakeEngine(t, base, cb, 1, obsOn)
			prefix(cold, cb)
			if rep := tail(cold, cb); !reflect.DeepEqual(rep, first) {
				t.Errorf("branch differs from a cold run:\n%s%s\nvs\n%s%s", first.VerboseString(), first.ObsText(), rep.VerboseString(), rep.ObsText())
			}
			if first.Phases[0].Checks == nil || first.Phases[0].Checks.Total != 1 || first.Phases[0].Net.Sent != 200 {
				t.Errorf("phase 0 = %+v checks=%+v", first.Phases[0], first.Phases[0].Checks)
			}
			if (first.Obs != nil) != obsOn {
				t.Errorf("obs=%v but report obs section = %v", obsOn, first.Obs)
			}
		})
	}
}

// viewProbe is a checker that keeps the View it was shown.
type viewProbe struct{ got **check.View }

func (viewProbe) Name() string { return "probe" }
func (p viewProbe) Check(v *check.View) []check.Violation {
	*p.got = v
	return nil
}

// TestEngineViewAssembly pins what the checkers are shown at a phase
// boundary: dead node, alive node without state, ages, reachability,
// degradation and the partition flag, across every dynamic that moves them.
func TestEngineViewAssembly(t *testing.T) {
	b := &fakeBackend{states: map[int]check.NodeState{
		// The backend's own index is wrong on purpose: the engine's wins.
		0: {Node: 99, Addr: 100, Alive: true, Kind: check.KindRing, Joined: true, Succs: []overlay.Address{101}},
		2: {Node: 2, Addr: 102, Alive: true, Kind: check.KindRing, Joined: true},
		3: {Node: 3, Addr: 103, Alive: true, Kind: check.KindRing, Joined: true},
		4: {Node: 4, Addr: 104, Alive: true, Kind: check.KindRing, Joined: true},
	}}
	e := newFakeEngine(t, fakeSchedule(6, 2, "staleness"), b, 1, false)
	var v *check.View
	e.checkers = []check.Checker{viewProbe{&v}}

	for n := 0; n < 5; n++ { // node 5 never spawns
		mustApply(t, e, b, time.Duration(n)*time.Second, Op{Kind: OpSpawn, Node: n})
	}
	mustApply(t, e, b, 12*time.Second, Op{Kind: OpNodeDown, Node: 2})
	mustApply(t, e, b, 13*time.Second, Op{Kind: OpLinkDown, Node: 3})
	mustApply(t, e, b, 14*time.Second, Op{Kind: OpDegrade, Node: 4, LatencyFactor: 3})
	mustApply(t, e, b, 15*time.Second, Op{Kind: OpKill, Node: 4})
	b.now = 20 * time.Second
	if pc := e.PhaseEnd(0); pc == nil || pc.Nodes != 4 || !reflect.DeepEqual(pc.Checkers, []string{"probe"}) {
		t.Fatalf("verdict = %+v", pc)
	}
	if v.Phase != 0 || v.PhaseName != "p0" || v.At != 20*time.Second || v.Grace != 5*time.Second || v.StaleBound != 10*time.Second || v.Partitioned {
		t.Errorf("view header = %+v", v)
	}
	if got := v.Nodes[0]; got.Node != 0 || !got.Joined || len(got.Succs) != 1 {
		t.Errorf("node 0 (backend state) = %+v", got)
	}
	if want := (check.NodeState{Node: 1, Addr: 101, Alive: true}); !reflect.DeepEqual(v.Nodes[1], want) {
		t.Errorf("node 1 (alive, no state) = %+v, want the unjoined placeholder %+v", v.Nodes[1], want)
	}
	for _, dead := range []int{4, 5} {
		if want := check.DeadState(dead, overlay.Address(100+dead)); !reflect.DeepEqual(v.Nodes[dead], want) {
			t.Errorf("node %d = %+v, want %+v", dead, v.Nodes[dead], want)
		}
	}
	wantDur := func(name string, got []time.Duration, want ...time.Duration) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	const s = time.Second
	wantDur("UpFor", v.UpFor, 20*s, 19*s, 18*s, 17*s, 0, 0)
	wantDur("DownFor", v.DownFor, 0, 0, 0, 0, 5*s, 20*s)
	wantDur("ConnAge", v.ConnAge, 20*s, 20*s, 8*s, 7*s, 6*s, 20*s)
	if want := []bool{true, true, false, false, true, true}; !reflect.DeepEqual(v.Reachable, want) {
		t.Errorf("Reachable = %v, want %v", v.Reachable, want)
	}
	if want := []bool{false, false, false, false, true, false}; !reflect.DeepEqual(v.Degraded, want) {
		t.Errorf("Degraded = %v, want %v", v.Degraded, want)
	}

	// Second boundary: everything undone, a partition in force.
	mustApply(t, e, b, 21*time.Second, Op{Kind: OpNodeUp, Node: 2})
	mustApply(t, e, b, 22*time.Second, Op{Kind: OpLinkUp, Node: 3})
	mustApply(t, e, b, 23*time.Second, Op{Kind: OpRestore, Node: 4})
	mustApply(t, e, b, 24*time.Second, Op{Kind: OpRevive, Node: 4})
	mustApply(t, e, b, 25*time.Second, Op{Kind: OpPartition, SideA: 3})
	b.now = 30 * time.Second
	e.PhaseEnd(1)
	if !v.Partitioned || v.Phase != 1 {
		t.Errorf("view header = %+v", v)
	}
	wantDur("UpFor", v.UpFor, 30*s, 29*s, 28*s, 27*s, 6*s, 0)
	wantDur("ConnAge (partition touches everyone)", v.ConnAge, 5*s, 5*s, 5*s, 5*s, 5*s, 5*s)
	if want := []bool{true, true, true, true, true, true}; !reflect.DeepEqual(v.Reachable, want) {
		t.Errorf("Reachable = %v, want %v", v.Reachable, want)
	}
	if v.Degraded[4] {
		t.Error("node 4 still degraded after restore")
	}
	mustApply(t, e, b, 31*time.Second, Op{Kind: OpHeal})
	if e.acct.partitioned {
		t.Error("still partitioned after heal")
	}
}

// TestEngineViolationEvent: one violating node yields exactly one
// check_violation event, in the verdict the phase row carries.
func TestEngineViolationEvent(t *testing.T) {
	b := &fakeBackend{}
	e := newFakeEngine(t, fakeSchedule(2, 1, "synthetic-full-population"), b, 1, true)
	mustApply(t, e, b, 0, Op{Kind: OpSpawn, Node: 0}) // node 1 stays down
	b.now = 20 * time.Second
	pc := e.PhaseEnd(0)
	if pc == nil || pc.Total != 1 {
		t.Fatalf("verdict = %+v", pc)
	}
	rep := e.Report()
	if rep.Phases[0].Checks != pc || rep.CheckViolations() != 1 {
		t.Errorf("report checks = %+v", rep.Phases[0].Checks)
	}
	var hits []string
	for _, line := range rep.Obs.Events {
		if strings.Contains(line, "ev=check_violation") {
			hits = append(hits, line)
		}
	}
	want := `t=20.000000s lvl=warn ev=check_violation checker=synthetic-full-population node=1 phase=0 detail="\"node down at phase end\""`
	if len(hits) != 1 || hits[0] != want {
		t.Errorf("check_violation events = %q, want one: %s", hits, want)
	}
}
