package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/repo"
	"macedon/internal/simnet"
	"macedon/internal/topology"
)

// The engine hot-path contract: what the event queue, the reused per-node
// buffers and the trace gating promise. The allocation guards run with
// tracing off, which is how every experiment and the benchmark run.

// ball is the rally protocol's one message; the receiver sends the very
// message it was handed back, so a bounce costs the engine's allocations
// only.
type ball struct{ N int32 }

func (m *ball) MsgName() string                { return "ball" }
func (m *ball) Encode(w *overlay.Writer)       { w.I32(m.N) }
func (m *ball) Decode(r *overlay.Reader) error { m.N = r.I32(); return r.Err() }

// rallyProto bounces a ball between two nodes until left reaches zero and,
// if ticking, counts a periodic timer.
type rallyProto struct {
	peer    overlay.Address
	ticking bool
	left    int
	recvd   int
	ticks   int
}

func (p *rallyProto) ProtocolName() string { return "rally" }

func (p *rallyProto) Define(d *Def) {
	d.Addressing(IPAddressing)
	d.UDPTransport("U")
	d.Message("ball", func() overlay.Message { return &ball{} }, "U")
	d.PeriodicTimer("tick", 10*time.Millisecond)
	d.OnAPI(overlay.APIInit, Any, Write, func(ctx *Context, _ *APICall) {
		if p.ticking {
			ctx.TimerSched("tick", 0)
		}
	})
	d.OnAPI(overlay.APIDowncallExt, Any, Read, func(ctx *Context, call *APICall) {
		if call.Op == 1 { // serve
			_ = ctx.Send(p.peer, &ball{}, overlay.PriorityDefault)
		}
	})
	d.OnRecv("ball", Any, Write, func(ctx *Context, ev *MsgEvent) {
		p.recvd++
		if p.left > 0 {
			p.left--
			_ = ctx.Send(ev.From, ev.Msg, overlay.PriorityDefault)
		}
	})
	d.OnTimer("tick", Any, Read, func(*Context) { p.ticks++ })
}

// rallyRig is two rally nodes on one hub.
func rallyRig(t *testing.T, ticking bool) (*simnet.Scheduler, [2]*Node, [2]*rallyProto) {
	t.Helper()
	g := topology.NewGraph()
	hub := g.AddRouter()
	g.AttachClient(1, hub, topology.DefaultAccess)
	g.AttachClient(2, hub, topology.DefaultAccess)
	sched := simnet.NewScheduler(5)
	net := simnet.New(sched, g, simnet.Config{})
	var nodes [2]*Node
	protos := [2]*rallyProto{{peer: 2, ticking: ticking}, {peer: 1, ticking: ticking}}
	for i := range nodes {
		p := protos[i]
		n, err := NewNode(Config{Addr: overlay.Address(i + 1), Net: net, Bootstrap: 1,
			Stack: []Factory{func() Agent { return p }}})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	return sched, nodes, protos
}

func skipAllocGuardUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are exact only without the race detector")
	}
}

func TestDowncallNoopDoesNotAllocate(t *testing.T) {
	skipAllocGuardUnderRace(t)
	_, nodes, _ := rallyRig(t, false)
	n := nodes[0]
	n.Downcall(0, nil) // warm: the first call builds the node's APICall record
	if got := testing.AllocsPerRun(1000, func() { n.Downcall(0, nil) }); got != 0 {
		t.Fatalf("Downcall into a no-op transition: %v allocs, want 0", got)
	}
}

func TestMessageBounceAllocs(t *testing.T) {
	skipAllocGuardUnderRace(t)
	sched, nodes, protos := rallyRig(t, false)
	const msgs = 2000
	rally := func() {
		protos[0].left, protos[1].left = msgs/2, msgs/2
		before := protos[0].recvd + protos[1].recvd
		nodes[0].Downcall(1, nil)
		for protos[0].recvd+protos[1].recvd-before < msgs+1 {
			if !sched.Step() {
				t.Fatal("rally stalled")
			}
		}
	}
	rally() // warm: path cache, packet pool, event heaps, per-node scratch
	per := testing.AllocsPerRun(5, rally) / (msgs + 1)
	t.Logf("%.3f allocs per message", per)
	// Per message: the message the registry factory returns. The datagram is
	// built in the mux's scratch and copied into a pooled packet record, whose
	// storage the receiver borrows (the budget was 2.02 while each message
	// allocated its datagram). The failure-detector sweeps that fall inside a
	// rally re-arm their one timer and cost nothing; the slack is headroom.
	if per > 1.02 {
		t.Fatalf("%.3f allocs per message end to end, want <= 1", per)
	}
}

func TestPeriodicTimerFireAllocs(t *testing.T) {
	skipAllocGuardUnderRace(t)
	sched, _, protos := rallyRig(t, true)
	sched.RunFor(time.Second) // warm
	before := protos[0].ticks + protos[1].ticks
	const runs = 20
	per := testing.AllocsPerRun(runs, func() { sched.RunFor(time.Second) })
	fires := float64(protos[0].ticks+protos[1].ticks-before) / (runs + 1)
	if fires < 150 {
		t.Fatalf("only %.0f fires per second across both nodes", fires)
	}
	// Nothing: a periodic timer re-arms its one substrate timer, and so do
	// the two failure-detector sweeps a second (1.01 allocations a fire when
	// every re-arm asked After for a new timer).
	t.Logf("%.2f allocs per fire (%.0f fires a run)", per/fires, fires)
	if per > 0 {
		t.Fatalf("%.0f timer fires cost %.0f allocs, want none", fires, per)
	}
}

// TestPostKeepsFIFOOrder posts from inside running events, deep enough to
// grow the ring and wrap it: everything runs in posting order, after the
// event that posted it has returned.
func TestPostKeepsFIFOOrder(t *testing.T) {
	_, nodes, _ := rallyRig(t, false)
	n := nodes[0]
	var got []string
	var spawn func(name string, depth int) func()
	spawn = func(name string, depth int) func() {
		return func() {
			got = append(got, name)
			if depth == 0 {
				return
			}
			for c := 0; c < 3; c++ {
				n.postFunc(spawn(fmt.Sprintf("%s.%d", name, c), depth-1))
			}
			got = append(got, name+" done")
		}
	}
	n.postFunc(spawn("r", 3))
	// Breadth-first order is what FIFO deferral produces.
	var want []string
	level := []string{"r"}
	for depth := 3; depth >= 0; depth-- {
		var next []string
		for _, name := range level {
			want = append(want, name)
			if depth > 0 {
				want = append(want, name+" done")
				for c := 0; c < 3; c++ {
					next = append(next, fmt.Sprintf("%s.%d", name, c))
				}
			}
		}
		level = next
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("event order:\n got %v\nwant %v", got, want)
	}
	if n.hot.queue.n != 0 || n.hot.draining {
		t.Fatalf("queue not idle after the chain: n=%d draining=%v", n.hot.queue.n, n.hot.draining)
	}
	for i, e := range n.hot.queue.buf {
		if e.fn != nil || e.inst != nil || e.ts != nil || e.call != nil || e.buf != nil {
			t.Fatalf("ring slot %d still pins its operands", i)
		}
	}
}

// TestExecWithConcurrentFrames drives the queue the way livenet does: socket
// goroutines deliver frames while a control goroutine inspects protocol
// state through Exec. Run under -race.
func TestExecWithConcurrentFrames(t *testing.T) {
	_, nodes, protos := rallyRig(t, false)
	n, p := nodes[0], protos[0]
	var w overlay.Writer
	frame, err := w.EncodeMessage(n.stack[0].def.registry, &ball{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	const senders, each = 8, 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(src overlay.Address) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				n.onFrame("U", src, frame) // left == 0: the handler counts and does not send
			}
		}(overlay.Address(100 + s))
	}
	seen := 0
	for seen < senders*each {
		n.Exec(func() {
			if p.recvd < seen {
				t.Errorf("recvd went backwards: %d after %d", p.recvd, seen)
			}
			seen = p.recvd
		})
	}
	wg.Wait()
	n.Exec(func() { seen = p.recvd })
	if seen != senders*each {
		t.Fatalf("received %d frames, want %d", seen, senders*each)
	}
	if c := n.Counters(); c.MsgsRecv != senders*each {
		t.Fatalf("MsgsRecv = %d", c.MsgsRecv)
	}
}

// TestFrameQueuedBehindAChainIsCopied: a frame is lent only until onFrame
// returns. One that arrives while the node's queue is draining — live, a
// timer's chain on another goroutine — runs after its lender has reused the
// bytes, so onFrame must queue a copy.
func TestFrameQueuedBehindAChainIsCopied(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1, 2}, echoStack(), 1)
	r.sched.RunFor(time.Millisecond) // init
	n := r.nodes[2]
	var got []byte
	n.RegisterHandlers(Handlers{Deliver: func(p []byte, _ int32, _ overlay.Address) { got = bytes.Clone(p) }})
	var w overlay.Writer
	frame, err := w.EncodeMessage(n.stack[0].def.registry, &echoMsgData{Src: 1, Dest: 2, Typ: 3, Payload: []byte("lent")})
	if err != nil {
		t.Fatal(err)
	}
	n.postFunc(func() {
		n.onFrame("REL", 1, frame) // the queue is draining: the frame waits
		clear(frame)               // and its lender reuses the storage at once
	})
	if string(got) != "lent" {
		t.Fatalf("delivered %q, want the frame as it was lent", got)
	}
}

// TestTimerReschedDefeatsQueuedFire pins the generation rule the reused timer
// callback rests on: a fire already queued when the timer is rescheduled or
// cancelled is dropped, and an idle re-arm keeps the callback and its
// substrate timer.
func TestTimerReschedDefeatsQueuedFire(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1}, echoStack(), 1)
	n := r.nodes[1]
	inst := n.Instance("echo")
	p := echoOf(n)
	ts := inst.timer("oneshot")
	n.postFunc(func() {
		inst.hot.ctx.TimerSched("oneshot", time.Millisecond)
		stale := ts.fire.gen
		inst.hot.ctx.TimerResched("oneshot", time.Hour)
		// The substrate fired the old timer just as it was replaced: what
		// its callback posts.
		n.post(event{kind: qTimer, inst: inst, ts: ts, gen: stale})
	})
	r.sched.RunFor(time.Second)
	if p.ticks >= 100 {
		t.Fatal("a fire queued before timer_resched ran the transition")
	}
	tick := inst.timer("tick")
	kept := tick.fire.tm
	before := p.ticks
	r.sched.RunFor(time.Second)
	if p.ticks-before < 9 {
		t.Fatalf("periodic timer stopped: %d fires", p.ticks-before)
	}
	if tick.fire.tm != kept || tick.tm != kept {
		t.Fatal("idle re-arm of a periodic timer rebuilt its callback or timer")
	}
}

func TestNeighborListClearKeepsStorage(t *testing.T) {
	l := newNeighborList(neighborDecl{name: "succ", max: 4})
	for round := 0; round < 3; round++ {
		for a := overlay.Address(1); a <= 4; a++ {
			if l.Add(a+overlay.Address(10*round)) == nil {
				t.Fatalf("round %d: Add(%d) refused", round, a)
			}
		}
		if !l.Full() {
			t.Fatal("list should be full")
		}
		l.Clear()
		if l.Size() != 0 || l.Contains(1+overlay.Address(10*round)) || l.First() != nil || len(l.index) != 0 {
			t.Fatalf("round %d: Clear left entries behind", round)
		}
	}
	l.Add(1)
	if got := testing.AllocsPerRun(100, l.Clear); got != 0 {
		t.Fatalf("Clear allocates %v", got)
	}
	// Remove shifts the entries down: the slot past the new length must not
	// keep the last neighbor alive.
	l.Add(1)
	l.Add(2)
	l.Remove(1)
	if tail := l.entries[:2][1]; tail != nil {
		t.Fatalf("Remove left %+v in the vacated slot", tail)
	}
}

// TestNeighborAddrsLentUntilChange: Addrs lends one array until the
// membership changes, and no mutation writes into an array it lent — a
// foreach in progress or a deferred notification keeps what it saw.
// NeighborsSnapshot, read from other goroutines, copies and leaves the cache
// alone.
func TestNeighborAddrsLentUntilChange(t *testing.T) {
	l := newNeighborList(neighborDecl{name: "n"})
	for a := overlay.Address(1); a <= 3; a++ {
		l.Add(a)
	}
	first := l.Addrs()
	if again := l.Addrs(); &again[0] != &first[0] {
		t.Fatal("an unchanged list lent a second array")
	}
	if got := testing.AllocsPerRun(100, func() { _ = l.Addrs() }); got != 0 {
		t.Fatalf("Addrs on an unchanged list allocates %v times", got)
	}
	l.Assign([]overlay.Address{1, 2, 3}, 100) // the same membership: still lent
	if again := l.Addrs(); &again[0] != &first[0] {
		t.Fatal("Assign of the current membership dropped the lent array")
	}
	for _, step := range []struct {
		name   string
		mutate func()
		want   []overlay.Address
	}{
		{"Add", func() { l.Add(4) }, []overlay.Address{1, 2, 3, 4}},
		{"Remove", func() { l.Remove(1) }, []overlay.Address{2, 3, 4}},
		{"Assign", func() { l.Assign([]overlay.Address{7, 2, 8}, 100) }, []overlay.Address{7, 2, 8}},
		{"Clear", l.Clear, []overlay.Address{}},
	} {
		lent := l.Addrs()
		saw := slices.Clone(lent)
		step.mutate()
		if !slices.Equal(lent, saw) {
			t.Fatalf("%s wrote into a lent array: %v, was %v", step.name, lent, saw)
		}
		if got := l.Addrs(); !slices.Equal(got, step.want) {
			t.Fatalf("after %s: Addrs = %v, want %v", step.name, got, step.want)
		}
	}
	l.Add(9) // drops the cache
	inst := &Instance{def: &Def{nbrIdx: map[string]int{"n": 0}}, nbrs: []*NeighborList{l}}
	snap := inst.NeighborsSnapshot("n")
	if l.addrs != nil {
		t.Fatal("NeighborsSnapshot filled the list's cache")
	}
	if lent := l.Addrs(); !slices.Equal(snap, lent) || &snap[0] == &lent[0] {
		t.Fatalf("NeighborsSnapshot = %v, want a copy of %v in its own array", snap, lent)
	}
}

// TestAssignMatchesClearAdd drives one list with Assign and a second with the
// Clear + Add loop generated code used to emit for neighbor_sync, through
// seeded sequences that mix in Add, Remove and Clear, and requires the two to
// be indistinguishable after every step: Assign recycles entry records, so a
// stale Delay, Key or index row is what this would catch.
func TestAssignMatchesClearAdd(t *testing.T) {
	const self = overlay.Address(100)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		max := []int{0, 1, 3, 8}[rng.Intn(4)]
		got := newNeighborList(neighborDecl{name: "l", max: max})
		want := newNeighborList(neighborDecl{name: "l", max: max})
		// Addresses come from a small pool, so steps overlap, repeat and permute.
		pick := func() overlay.Address {
			switch a := overlay.Address(rng.Intn(14)); a {
			case 0:
				return overlay.NilAddress
			case 1:
				return self
			default:
				return a
			}
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				addrs := make([]overlay.Address, rng.Intn(12))
				for i := range addrs {
					addrs[i] = pick()
				}
				if rng.Intn(4) == 0 { // the steady state: the membership it already has
					addrs = got.Addrs()
					if rng.Intn(2) == 0 && len(addrs) > 1 {
						rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
					}
				}
				got.Assign(addrs, self)
				want.Clear()
				for _, a := range addrs {
					if a != overlay.NilAddress && a != self {
						want.Add(a)
					}
				}
			case op < 8:
				a := pick()
				if (got.Add(a) == nil) != (want.Add(a) == nil) {
					t.Fatalf("seed %d step %d: Add(%v) disagrees", seed, step, a)
				}
			case op < 9:
				a := pick()
				if got.Remove(a) != want.Remove(a) {
					t.Fatalf("seed %d step %d: Remove(%v) disagrees", seed, step, a)
				}
			default:
				got.Clear()
				want.Clear()
			}
			if g, w := got.Addrs(), want.Addrs(); !slices.Equal(g, w) || got.Size() != want.Size() || len(got.index) != len(want.index) {
				t.Fatalf("seed %d step %d: members %v (index %d), want %v (index %d)", seed, step, g, len(got.index), w, len(want.index))
			}
			for a := overlay.Address(0); a < 14; a++ {
				g, w := got.Entry(a), want.Entry(a)
				if got.Contains(a) != want.Contains(a) || (g == nil) != (w == nil) || (g != nil && *g != *w) {
					t.Fatalf("seed %d step %d: Entry(%v) = %+v, want %+v", seed, step, a, g, w)
				}
			}
			if g, w := got.First(), want.First(); (g == nil) != (w == nil) || (g != nil && (*g != *w || g != got.Entry(g.Addr))) {
				t.Fatalf("seed %d step %d: First() = %+v, want %+v", seed, step, g, w)
			}
			// What a protocol writes between syncs must not survive the next one.
			for i, e := range got.entries {
				e.Key, e.Delay, e.Bandwidth, e.Value = overlay.Key(step), float64(step+i), float64(seed), step
				*want.entries[i] = *e
			}
		}
	}
}

// TestAssignSteadyStateDoesNotAllocate: a stabilisation round that finds the
// membership it left, in the same order or another, costs no allocation.
func TestAssignSteadyStateDoesNotAllocate(t *testing.T) {
	l := newNeighborList(neighborDecl{name: "succ", max: 8})
	same := []overlay.Address{2, 3, 4, 5}
	permuted := []overlay.Address{4, 2, 5, 3}
	l.Assign(same, 1)
	if got := testing.AllocsPerRun(100, func() { l.Assign(same, 1) }); got != 0 {
		t.Errorf("Assign of the current membership allocates %v", got)
	}
	if got := testing.AllocsPerRun(100, func() { l.Assign(permuted, 1); l.Assign(same, 1) }); got != 0 {
		t.Errorf("Assign of a permuted membership allocates %v", got)
	}
}

// TestTraceHighGolden pins the bytes a TraceHigh run writes, and owns
// testdata/trace_high.golden. The golden was written by the engine as it
// stood before trace call sites learned to test the level first, so it
// proves the gating changed no traced line; one line moved since, when the
// application payload the lower layer delivers under a layer above stopped
// being dropped as undeliverable.
func TestTraceHighGolden(t *testing.T) {
	g := topology.NewGraph()
	hub := g.AddRouter()
	addrs := []overlay.Address{1, 2, 3}
	for _, a := range addrs {
		g.AttachClient(a, hub, topology.DefaultAccess)
	}
	sched := simnet.NewScheduler(5)
	net := simnet.New(sched, g, simnet.Config{})
	var out bytes.Buffer
	nodes := make(map[overlay.Address]*Node)
	for _, a := range addrs {
		n, err := NewNode(Config{Addr: a, Net: net, Stack: twoLayerStack(), Bootstrap: 1,
			TraceLevel: TraceHigh, TraceWriter: &out,
			HeartbeatAfter: 200 * time.Millisecond, FailAfter: 600 * time.Millisecond, Sweep: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		nodes[a] = n
	}
	nodes[3].RegisterHandlers(Handlers{Deliver: func([]byte, int32, overlay.Address) {}})
	sched.RunFor(10 * time.Millisecond)
	nodes[2].Downcall(10, overlay.Address(3)) // layered note 2 -> 1 (forward upcall) -> 3
	if err := nodes[2].RouteIP(3, []byte("payload"), 7, overlay.PriorityDefault); err != nil {
		t.Fatal(err)
	}
	nodes[1].Downcall(10, overlay.Address(2)) // and one straight to a neighbor
	_ = nodes[1].Leave(5)                     // no transition for it: an "unhandled" line
	sched.RunFor(200 * time.Millisecond)
	// Node 1 monitors 2 and 3; 3 then dies: probes, a failure verdict, the
	// error transition.
	lowest := func(n *Node, op int, arg any) {
		n.postFunc(func() { n.stack[0].dispatchAPI(&APICall{Kind: overlay.APIDowncallExt, Op: op, Arg: arg}) })
	}
	lowest(nodes[1], 1, overlay.Address(2))
	lowest(nodes[1], 1, overlay.Address(3))
	sched.RunFor(300 * time.Millisecond)
	if err := net.SetDown(3, true); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(1500 * time.Millisecond)
	if f := echoOf(nodes[1]).failures; len(f) != 1 || f[0] != 3 {
		t.Fatalf("failures = %v", f)
	}
	nodes[1].Stop()

	repo.RecordGolden(t, filepath.Join("testdata", "trace_high.golden"), out.String())
}

// The scratch types opt out of checkpoints with a marker method; embedding
// one would promote the marker and silently drop the whole enclosing object
// from every fork image.
func TestOnlyScratchIsCheckpointOpaque(t *testing.T) {
	type opaque interface{ StateCopyOpaque() }
	for _, v := range []any{&Node{}, &Instance{}, &timerState{}, &NeighborList{}} {
		if _, ok := v.(opaque); ok {
			t.Errorf("%T is StateCopyOpaque: its state would not survive a fork", v)
		}
	}
	for _, v := range []any{&hotPath{}, &instHot{}, &timerCallback{}} {
		if _, ok := v.(opaque); !ok {
			t.Errorf("%T must be StateCopyOpaque", v)
		}
	}
}

// tagMsg is a bodiless message of any name.
type tagMsg struct{ name string }

func (m *tagMsg) MsgName() string              { return m.name }
func (m *tagMsg) Encode(*overlay.Writer)       {}
func (m *tagMsg) Decode(*overlay.Reader) error { return nil }

// denseProto declares what the indexed tables have to get right at the
// edges: a message nobody receives, a message bound to no transport, a timer
// nobody handles, and a downcall that arms that timer or sends either message
// at any priority and keeps the error.
type denseProto struct{ errs []string }

func (p *denseProto) ProtocolName() string { return "dense" }

func (p *denseProto) Define(d *Def) {
	d.Addressing(IPAddressing)
	d.UDPTransport("U")
	for _, name := range []string{"mute", "loose"} {
		transport := map[string]string{"mute": "U"}[name]
		d.Message(name, func() overlay.Message { return &tagMsg{name} }, transport)
	}
	d.Timer("idle", 10*time.Millisecond)
	d.OnAPI(overlay.APIDowncallExt, Any, Write, func(ctx *Context, call *APICall) {
		if call.Arg == "idle" {
			ctx.TimerSched("idle", 0)
			return
		}
		err := ctx.Send(2, &tagMsg{call.Arg.(string)}, call.Op)
		p.errs = append(p.errs, fmt.Sprint(err))
	})
}

// TestDenseTablesMatchDeclarations: the message path reads Def.byID and the
// instance's resolved transports, a timer fire reads timerDecl.fire and an API
// call Def.byAPI, where they used to read the declaration maps by name. The
// rows must be the maps' own entries, and the cases the maps answered with
// "not found" must come out as they always did.
func TestDenseTablesMatchDeclarations(t *testing.T) {
	for _, a := range []Agent{&echoProto{}, &upperProto{}, &denseProto{}} {
		d := newDef(protocolName(a))
		a.Define(d)
		if err := d.validate(); err != nil {
			t.Fatal(err)
		}
		d.index()
		if len(d.byID) != d.registry.Len() {
			t.Fatalf("%s: %d rows for %d registered messages", d.name, len(d.byID), d.registry.Len())
		}
		same := func(a, b []transition) bool {
			return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
		}
		for id, row := range d.byID {
			name := d.registry.Name(uint16(id))
			if row.name != name || row.transport != d.messages[name].transport ||
				!same(row.recv, d.transitions[eventKey{evRecv, name}]) ||
				!same(row.forward, d.transitions[eventKey{evForward, name}]) {
				t.Errorf("%s: row %d does not match the declarations of %q: %+v", d.name, id, name, row)
			}
		}
		for name, td := range d.timers {
			if !same(td.fire, d.transitions[eventKey{evTimer, name}]) {
				t.Errorf("%s: timer %q does not carry its declared transitions", d.name, name)
			}
		}
		apis := 0
		for kind, ts := range d.byAPI {
			if !same(ts, d.transitions[eventKey{evAPI, overlay.API(kind).String()}]) {
				t.Errorf("%s: byAPI[%v] does not match the declarations", d.name, overlay.API(kind))
			}
			if len(ts) > 0 {
				apis++
			}
		}
		for k := range d.transitions {
			if k.kind == evAPI {
				apis--
			}
		}
		if apis != 0 {
			t.Errorf("%s: byAPI misses %d declared API kinds", d.name, -apis)
		}
	}

	g := topology.NewGraph()
	hub := g.AddRouter()
	g.AttachClient(1, hub, topology.DefaultAccess)
	g.AttachClient(2, hub, topology.DefaultAccess)
	sched := simnet.NewScheduler(5)
	net := simnet.New(sched, g, simnet.Config{})
	var out bytes.Buffer
	var nodes [2]*Node
	for i := range nodes {
		n, err := NewNode(Config{Addr: overlay.Address(i + 1), Net: net, Bootstrap: 1,
			Stack: []Factory{func() Agent { return &denseProto{} }}, TraceLevel: TraceMed, TraceWriter: &out})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	proto := nodes[0].Instance("dense").Agent().(*denseProto)

	// A message with no recv transition is decoded, counted and reported.
	before := nodes[1].Instance("dense").Counters()
	nodes[0].Downcall(overlay.PriorityDefault, "mute")
	sched.RunFor(100 * time.Millisecond)
	if c := nodes[1].Instance("dense").Counters(); c.MsgsRecv != before.MsgsRecv+1 || c.Unhandled != before.Unhandled+1 {
		t.Fatalf("receiver of an unhandled message counts %+v, before it %+v", c, before)
	}
	if want := "0.0.0.2 dense: unhandled recv mute in state init"; !strings.Contains(out.String(), want) {
		t.Fatalf("trace lacks %q:\n%s", want, out.String())
	}

	// So are a timer with no transition, an API kind the table has a row for
	// and one past its end.
	before = nodes[0].Instance("dense").Counters()
	nodes[0].Downcall(0, "idle")
	nodes[0].Join(7)
	nodes[0].postAPI(nodes[0].Top(), &APICall{Kind: overlay.API(200)})
	sched.RunFor(100 * time.Millisecond)
	if c := nodes[0].Instance("dense").Counters(); c.TimerFires != before.TimerFires+1 || c.Unhandled != before.Unhandled+3 {
		t.Fatalf("an unhandled timer and two unhandled API calls count %+v, before them %+v", c, before)
	}
	for _, want := range []string{
		"0.0.0.1 dense: unhandled timer idle in state init",
		"0.0.0.1 dense: unhandled API join in state init",
		"0.0.0.1 dense: unhandled API API(200) in state init",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("trace lacks %q:\n%s", want, out.String())
		}
	}

	// No binding and no priority: the error the name lookup used to give. An
	// explicit priority overrides the missing binding, before and after.
	nodes[0].Downcall(overlay.PriorityDefault, "loose")
	nodes[0].Downcall(0, "loose")
	nodes[0].Downcall(overlay.PriorityDefault, "loose")
	// A binding to a transport the node does not run (validate rules it out,
	// so take it away by hand) — once "mute" has resolved its transport the
	// instance keeps it, so ask through a fresh id's first send.
	nodes[1].prio = nil // "U" is the only transport dense declares
	nodes[1].Downcall(overlay.PriorityDefault, "mute")
	sched.RunFor(100 * time.Millisecond)
	noBinding := `core: dense: message "loose" has no transport binding and no priority was given`
	if got, want := proto.errs, []string{"<nil>", noBinding, "<nil>", noBinding}; !slices.Equal(got, want) {
		t.Fatalf("send errors %q, want %q", got, want)
	}
	other := nodes[1].Instance("dense").Agent().(*denseProto)
	if got, want := other.errs, []string{`core: dense: transport "U" not instantiated`}; !slices.Equal(got, want) {
		t.Fatalf("send errors %q, want %q", got, want)
	}
}
