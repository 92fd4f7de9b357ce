package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/simnet"
	"macedon/internal/topology"
)

// --- test protocols ---------------------------------------------------

// echoMsgData is the routing protocol's encapsulation message.
type echoMsgData struct {
	Src     overlay.Address
	Dest    overlay.Address
	Typ     int32
	Payload []byte
}

func (m *echoMsgData) MsgName() string { return "data" }
func (m *echoMsgData) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.Addr(m.Dest)
	w.U32(uint32(m.Typ))
	w.Bytes32(m.Payload)
}
func (m *echoMsgData) Decode(r *overlay.Reader) error {
	m.Src = r.Addr()
	m.Dest = r.Addr()
	m.Typ = int32(r.U32())
	m.Payload = append([]byte(nil), r.Bytes32()...)
	return r.Err()
}

type echoPing struct{ N int32 }

func (m *echoPing) MsgName() string                { return "ping" }
func (m *echoPing) Encode(w *overlay.Writer)       { w.I32(m.N) }
func (m *echoPing) Decode(r *overlay.Reader) error { m.N = r.I32(); return r.Err() }

type echoPong struct{ N int32 }

func (m *echoPong) MsgName() string                { return "pong" }
func (m *echoPong) Encode(w *overlay.Writer)       { w.I32(m.N) }
func (m *echoPong) Decode(r *overlay.Reader) error { m.N = r.I32(); return r.Err() }

// echoProto is a minimal lowest-layer routing protocol: routeIP relays
// through the bootstrap node (so forward upcalls have a hop to run on),
// plus a ping/pong pair and a periodic tick timer.
type echoProto struct {
	boot     overlay.Address
	ticks    int
	pongs    []int32
	failures []overlay.Address
	notified int
}

func (p *echoProto) ProtocolName() string { return "echo" }

func (p *echoProto) Define(d *Def) {
	d.States("ready")
	d.Addressing(IPAddressing)
	d.UDPTransport("BE")
	d.TCPTransport("REL")
	d.Message("data", func() overlay.Message { return &echoMsgData{} }, "REL")
	d.Message("ping", func() overlay.Message { return &echoPing{} }, "BE")
	d.Message("pong", func() overlay.Message { return &echoPong{} }, "BE")
	d.PeriodicTimer("tick", 100*time.Millisecond)
	d.Timer("oneshot", 0)
	d.NeighborList("peers", 8, true)

	d.OnAPI(overlay.APIInit, In(StateInit), Write, func(ctx *Context, call *APICall) {
		p.boot = call.Bootstrap
		ctx.StateChange("ready")
		ctx.TimerSched("tick", 0)
	})
	d.OnAPI(overlay.APIRouteIP, In("ready"), Read, func(ctx *Context, call *APICall) {
		m := &echoMsgData{Src: ctx.Self(), Dest: call.DestIP, Typ: call.PayloadType, Payload: call.Payload}
		next := call.DestIP
		if ctx.Self() != p.boot && call.DestIP != p.boot {
			next = p.boot // relay through the bootstrap
		}
		_ = ctx.Send(next, m, call.Priority)
	})
	d.OnRecv("data", In("ready"), Write, func(ctx *Context, ev *MsgEvent) {
		m := ev.Msg.(*echoMsgData)
		if m.Dest == ctx.Self() {
			ctx.Deliver(m.Payload, m.Typ, m.Src)
			return
		}
		ok, next, payload := ctx.Forward(m.Payload, m.Typ, m.Dest, overlay.HashAddress(m.Dest))
		if !ok {
			return
		}
		m.Payload = payload
		m.Dest = next // a redirect rewrites the destination in this protocol
		_ = ctx.Send(next, m, overlay.PriorityDefault)
	})
	d.OnRecv("ping", In("ready"), Write, func(ctx *Context, ev *MsgEvent) {
		_ = ctx.Send(ev.From, &echoPong{N: ev.Msg.(*echoPing).N}, overlay.PriorityDefault)
	})
	d.OnRecv("ping", In(StateInit), Write, func(ctx *Context, ev *MsgEvent) {
		// Scoped differently before init completes: ignore silently.
	})
	d.OnRecv("pong", In("ready"), Write, func(ctx *Context, ev *MsgEvent) {
		p.pongs = append(p.pongs, ev.Msg.(*echoPong).N)
	})
	d.OnTimer("tick", In("ready"), Read, func(ctx *Context) { p.ticks++ })
	d.OnTimer("oneshot", Any, Write, func(ctx *Context) { p.ticks += 100 })
	d.OnAPI(overlay.APIError, Any, Write, func(ctx *Context, call *APICall) {
		p.failures = append(p.failures, call.Failed)
	})
	d.OnAPI(overlay.APIDowncallExt, Any, Write, func(ctx *Context, call *APICall) {
		switch call.Op {
		case 1: // add monitored peer
			ctx.Neighbors("peers").Add(call.Arg.(overlay.Address))
		case 2: // ping a peer
			_ = ctx.Send(call.Arg.(overlay.Address), &echoPing{N: 42}, overlay.PriorityDefault)
		case 3: // announce neighbors upward
			ctx.NotifyNeighbors(overlay.NbrTypePeer, ctx.Neighbors("peers").Addrs())
		}
	})
}

// upperNote is a layered protocol's own message.
type upperNote struct{ Text string }

func (m *upperNote) MsgName() string                { return "note" }
func (m *upperNote) Encode(w *overlay.Writer)       { w.String16(m.Text) }
func (m *upperNote) Decode(r *overlay.Reader) error { m.Text = r.String16(); return r.Err() }

// upperProto layers on echo: its notes travel inside echo data messages.
type upperProto struct {
	notes    []string
	forwards []string
	quash    bool
	redirect overlay.Address
}

func (p *upperProto) ProtocolName() string { return "upper" }

func (p *upperProto) Define(d *Def) {
	d.States("up")
	d.Message("note", func() overlay.Message { return &upperNote{} }, "")
	d.OnAPI(overlay.APIInit, Any, Write, func(ctx *Context, call *APICall) {
		ctx.StateChange("up")
	})
	d.OnAPI(overlay.APIRouteIP, Any, Read, func(ctx *Context, call *APICall) {
		// Application data: wrap in a note? No — pass through to the base.
		_ = ctx.RouteIP(call.DestIP, call.Payload, call.PayloadType, call.Priority)
	})
	d.OnAPI(overlay.APIDowncallExt, Any, Write, func(ctx *Context, call *APICall) {
		// op 10: send a note to the given address.
		_ = ctx.Send(call.Arg.(overlay.Address), &upperNote{Text: "hi"}, overlay.PriorityDefault)
	})
	d.OnRecv("note", Any, Write, func(ctx *Context, ev *MsgEvent) {
		p.notes = append(p.notes, ev.Msg.(*upperNote).Text)
	})
	d.OnForward("note", Any, Write, func(ctx *Context, ev *MsgEvent) {
		n := ev.Msg.(*upperNote)
		p.forwards = append(p.forwards, n.Text)
		n.Text = n.Text + "+hop" // rewrite in flight
		if p.quash {
			ev.Quash = true
		}
		if p.redirect != overlay.NilAddress {
			ev.NextHop = p.redirect
		}
	})
}

// --- rig ---------------------------------------------------------------

type coreRig struct {
	sched *simnet.Scheduler
	net   *simnet.Network
	nodes map[overlay.Address]*Node
}

func newCoreRig(t *testing.T, addrs []overlay.Address, stack []Factory, boot overlay.Address) *coreRig {
	t.Helper()
	g := topology.NewGraph()
	hub := g.AddRouter()
	for _, a := range addrs {
		g.AttachClient(a, hub, topology.DefaultAccess)
	}
	sched := simnet.NewScheduler(5)
	net := simnet.New(sched, g, simnet.Config{})
	r := &coreRig{sched: sched, net: net, nodes: make(map[overlay.Address]*Node)}
	for _, a := range addrs {
		n, err := NewNode(Config{Addr: a, Net: net, Stack: stack, Bootstrap: boot})
		if err != nil {
			t.Fatal(err)
		}
		r.nodes[a] = n
	}
	return r
}

func echoStack() []Factory { return []Factory{func() Agent { return &echoProto{} }} }
func twoLayerStack() []Factory {
	return []Factory{func() Agent { return &echoProto{} }, func() Agent { return &upperProto{} }}
}

func echoOf(n *Node) *echoProto   { return n.Instance("echo").Agent().(*echoProto) }
func upperOf(n *Node) *upperProto { return n.Instance("upper").Agent().(*upperProto) }

// --- tests ---------------------------------------------------------------

func TestInitTransitionRuns(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1}, echoStack(), 1)
	r.sched.RunFor(time.Millisecond)
	if st := r.nodes[1].Instance("echo").State(); st != "ready" {
		t.Fatalf("state after init = %q", st)
	}
}

func TestAppRouteIPDeliver(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1, 2}, echoStack(), 1)
	var got []byte
	var gotTyp int32
	var gotSrc overlay.Address
	r.nodes[2].RegisterHandlers(Handlers{
		Deliver: func(p []byte, typ int32, src overlay.Address) {
			got = append([]byte(nil), p...)
			gotTyp, gotSrc = typ, src
		},
	})
	if err := r.nodes[1].RouteIP(2, []byte("payload"), 7, overlay.PriorityDefault); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(time.Second)
	if string(got) != "payload" || gotTyp != 7 || gotSrc != 1 {
		t.Fatalf("deliver = %q typ=%d src=%v", got, gotTyp, gotSrc)
	}
}

func TestAppNegativeTypeRejected(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1}, echoStack(), 1)
	if err := r.nodes[1].RouteIP(1, nil, -1, 0); err == nil {
		t.Fatal("negative app payload type must be rejected")
	}
}

func TestPingPongAndStateScoping(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1, 2}, echoStack(), 1)
	r.sched.RunFor(10 * time.Millisecond)
	r.nodes[1].Downcall(2, overlay.Address(2)) // ping node 2
	r.sched.RunFor(time.Second)
	if p := echoOf(r.nodes[1]); len(p.pongs) != 1 || p.pongs[0] != 42 {
		t.Fatalf("pongs = %v", p.pongs)
	}
}

func TestPeriodicTimer(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1}, echoStack(), 1)
	r.sched.RunFor(time.Second + 10*time.Millisecond)
	p := echoOf(r.nodes[1])
	if p.ticks < 9 || p.ticks > 11 {
		t.Fatalf("ticks in 1s at 100ms period = %d", p.ticks)
	}
}

func TestStopCancelsTimers(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1}, echoStack(), 1)
	r.sched.RunFor(300 * time.Millisecond)
	r.nodes[1].Stop()
	p := echoOf(r.nodes[1])
	before := p.ticks
	r.sched.RunFor(time.Second)
	if p.ticks != before {
		t.Fatalf("ticks advanced after Stop: %d -> %d", before, p.ticks)
	}
}

func TestLayeredSendAndRecv(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1, 2}, twoLayerStack(), 1)
	r.sched.RunFor(10 * time.Millisecond)
	r.nodes[1].Downcall(10, overlay.Address(2)) // upper sends note to node 2
	r.sched.RunFor(time.Second)
	if notes := upperOf(r.nodes[2]).notes; len(notes) != 1 || notes[0] != "hi" {
		t.Fatalf("notes = %v", notes)
	}
}

func TestForwardUpcallRewrite(t *testing.T) {
	// Three nodes; notes from 2 to 3 relay through bootstrap 1, whose upper
	// layer's forward transition rewrites the text.
	r := newCoreRig(t, []overlay.Address{1, 2, 3}, twoLayerStack(), 1)
	r.sched.RunFor(10 * time.Millisecond)
	r.nodes[2].Downcall(10, overlay.Address(3))
	r.sched.RunFor(time.Second)
	if fw := upperOf(r.nodes[1]).forwards; len(fw) != 1 || fw[0] != "hi" {
		t.Fatalf("relay forwards = %v", fw)
	}
	if notes := upperOf(r.nodes[3]).notes; len(notes) != 1 || notes[0] != "hi+hop" {
		t.Fatalf("rewritten notes = %v", notes)
	}
}

func TestForwardUpcallQuash(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1, 2, 3}, twoLayerStack(), 1)
	r.sched.RunFor(10 * time.Millisecond)
	upperOf(r.nodes[1]).quash = true
	r.nodes[2].Downcall(10, overlay.Address(3))
	r.sched.RunFor(time.Second)
	if notes := upperOf(r.nodes[3]).notes; len(notes) != 0 {
		t.Fatalf("quashed note arrived: %v", notes)
	}
}

func TestForwardUpcallRedirect(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1, 2, 3, 4}, twoLayerStack(), 1)
	r.sched.RunFor(10 * time.Millisecond)
	upperOf(r.nodes[1]).redirect = 4
	r.nodes[2].Downcall(10, overlay.Address(3))
	r.sched.RunFor(time.Second)
	if notes := upperOf(r.nodes[4]).notes; len(notes) != 1 {
		t.Fatalf("redirected note missing: %v", notes)
	}
	if notes := upperOf(r.nodes[3]).notes; len(notes) != 0 {
		t.Fatalf("original destination still got the note: %v", notes)
	}
}

func TestAppForwardHandlerQuash(t *testing.T) {
	// Application payloads relayed through the bootstrap run the app's
	// forward handler there.
	r := newCoreRig(t, []overlay.Address{1, 2, 3}, echoStack(), 1)
	var sawForward bool
	r.nodes[1].RegisterHandlers(Handlers{
		Forward: func(p []byte, typ int32, next overlay.Address, key overlay.Key) bool {
			sawForward = true
			return false // quash everything
		},
	})
	var delivered bool
	r.nodes[3].RegisterHandlers(Handlers{
		Deliver: func([]byte, int32, overlay.Address) { delivered = true },
	})
	_ = r.nodes[2].RouteIP(3, []byte("x"), 1, overlay.PriorityDefault)
	r.sched.RunFor(time.Second)
	if !sawForward {
		t.Fatal("app forward handler never ran")
	}
	if delivered {
		t.Fatal("quashed payload was delivered")
	}
}

func TestNotifyUpcallToApp(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1, 2}, echoStack(), 1)
	var nt overlay.NeighborType
	var nbrs []overlay.Address
	r.nodes[1].RegisterHandlers(Handlers{
		Notify: func(typ overlay.NeighborType, as []overlay.Address) { nt, nbrs = typ, as },
	})
	r.nodes[1].Downcall(1, overlay.Address(2)) // add peer
	r.nodes[1].Downcall(3, nil)                // notify
	r.sched.RunFor(time.Second)
	if nt != overlay.NbrTypePeer || len(nbrs) != 1 || nbrs[0] != 2 {
		t.Fatalf("notify = %v %v", nt, nbrs)
	}
}

func TestFailureDetection(t *testing.T) {
	g := topology.NewGraph()
	hub := g.AddRouter()
	g.AttachClient(1, hub, topology.DefaultAccess)
	g.AttachClient(2, hub, topology.DefaultAccess)
	sched := simnet.NewScheduler(5)
	net := simnet.New(sched, g, simnet.Config{})
	mk := func(a overlay.Address) *Node {
		n, err := NewNode(Config{
			Addr: a, Net: net, Stack: echoStack(), Bootstrap: 1,
			HeartbeatAfter: 2 * time.Second, FailAfter: 6 * time.Second,
			Sweep: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n1, n2 := mk(1), mk(2)
	_ = n2
	n1.Downcall(1, overlay.Address(2)) // monitor node 2
	sched.RunFor(time.Second)

	// Alive but silent: heartbeats keep it alive, no failure for a long time.
	sched.RunFor(30 * time.Second)
	if f := echoOf(n1).failures; len(f) != 0 {
		t.Fatalf("alive peer declared failed: %v", f)
	}

	// Now crash node 2.
	if err := net.SetDown(2, true); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(10 * time.Second)
	f := echoOf(n1).failures
	if len(f) != 1 || f[0] != 2 {
		t.Fatalf("failures = %v", f)
	}
	if echoOf(n1).failures[0] != 2 {
		t.Fatalf("wrong failed peer")
	}
	// The failed peer was removed from the monitored list: no repeat firing.
	sched.RunFor(20 * time.Second)
	if f := echoOf(n1).failures; len(f) != 1 {
		t.Fatalf("error transition re-fired: %v", f)
	}
	if c := n1.Instance("echo").Counters(); c.Failures != 1 {
		t.Fatalf("failure counter = %d", c.Failures)
	}
}

func TestCountersAdvance(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1, 2}, echoStack(), 1)
	r.nodes[1].Downcall(2, overlay.Address(2))
	r.sched.RunFor(time.Second)
	c1 := r.nodes[1].Counters()
	if c1.MsgsSent == 0 || c1.Transitions == 0 || c1.TimerFires == 0 {
		t.Fatalf("counters did not advance: %+v", c1)
	}
	c2 := r.nodes[2].Counters()
	if c2.MsgsRecv == 0 {
		t.Fatalf("receiver counters: %+v", c2)
	}
}

func TestUnhandledEventCounted(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1, 2}, echoStack(), 1)
	// Multicast has no transition in echo.
	_ = r.nodes[1].Multicast(5, []byte("x"), 1, 0)
	r.sched.RunFor(100 * time.Millisecond)
	if c := r.nodes[1].Instance("echo").Counters(); c.Unhandled == 0 {
		t.Fatal("unhandled API call not counted")
	}
}

func TestTracing(t *testing.T) {
	g := topology.NewGraph()
	hub := g.AddRouter()
	g.AttachClient(1, hub, topology.DefaultAccess)
	sched := simnet.NewScheduler(5)
	net := simnet.New(sched, g, simnet.Config{})
	var buf bytes.Buffer
	n, err := NewNode(Config{Addr: 1, Net: net, Stack: echoStack(), Bootstrap: 1,
		TraceLevel: TraceHigh, TraceWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	_ = n
	sched.RunFor(500 * time.Millisecond)
	out := buf.String()
	if !strings.Contains(out, "state init -> ready") {
		t.Fatalf("missing state-change trace:\n%s", out)
	}
	if !strings.Contains(out, "timer tick") {
		t.Fatalf("missing timer trace:\n%s", out)
	}
}

func TestConfigValidation(t *testing.T) {
	g := topology.NewGraph()
	hub := g.AddRouter()
	g.AttachClient(1, hub, topology.DefaultAccess)
	sched := simnet.NewScheduler(5)
	net := simnet.New(sched, g, simnet.Config{})
	if _, err := NewNode(Config{Addr: 1, Net: net}); err == nil {
		t.Fatal("empty stack must fail")
	}
	if _, err := NewNode(Config{Addr: 99, Net: net, Stack: echoStack()}); err == nil {
		t.Fatal("unattached address must fail")
	}
	if _, err := NewNode(Config{Addr: 1, Stack: echoStack()}); err == nil {
		t.Fatal("nil network must fail")
	}
}

func TestDefValidation(t *testing.T) {
	bad := func(name string, define func(d *Def)) {
		t.Helper()
		d := newDef("p")
		define(d)
		if err := d.validate(); err == nil {
			t.Fatalf("%s: expected validation error", name)
		}
	}
	bad("undeclared message transition", func(d *Def) {
		d.OnRecv("nope", Any, Write, func(*Context, *MsgEvent) {})
	})
	bad("undeclared timer transition", func(d *Def) {
		d.OnTimer("nope", Any, Write, func(*Context) {})
	})
	bad("message on undeclared transport", func(d *Def) {
		d.Message("m", func() overlay.Message { return &echoPing{} }, "missing")
	})
	bad("duplicate transport", func(d *Def) {
		d.TCPTransport("t")
		d.TCPTransport("t")
	})
	bad("duplicate neighbor list", func(d *Def) {
		d.NeighborList("l", 1, false)
		d.NeighborList("l", 2, false)
	})
	bad("negated guard on an undeclared state", func(d *Def) {
		d.Timer("t", time.Second)
		d.OnTimer("t", Not(In("joind")), Write, func(*Context) {})
	})
}

// typoProto guards a transition by a misspelt state, which could never match.
type typoProto struct{}

func (typoProto) ProtocolName() string { return "typo" }
func (typoProto) DefinedByType()       {}

func (typoProto) Define(d *Def) {
	d.States("joining", "joined")
	d.UDPTransport("U")
	d.Message("ping", func() overlay.Message { return &echoPing{} }, "U")
	d.OnRecv("ping", In("joind"), Write, RecvOf(func(typoProto, *Context, *MsgEvent, *echoPing) {}))
}

// TestUndeclaredGuardStateRejected: a node whose stack names an undeclared
// state in a guard is not built, and the error says which protocol and state.
func TestUndeclaredGuardStateRejected(t *testing.T) {
	g := topology.NewGraph()
	g.AttachClient(1, g.AddRouter(), topology.DefaultAccess)
	net := simnet.New(simnet.NewScheduler(5), g, simnet.Config{})
	_, err := NewNode(Config{Addr: 1, Net: net, Stack: []Factory{func() Agent { return typoProto{} }}})
	if err == nil {
		t.Fatal("a guard on an undeclared state was accepted")
	}
	for _, want := range []string{"typo", `"joind"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

func TestStateExprs(t *testing.T) {
	if !Any.Matches("x") {
		t.Fatal("Any should match")
	}
	e := In("a", "b")
	if !e.Matches("a") || e.Matches("c") {
		t.Fatal("In broken")
	}
	n := Not(In("joining", "init"))
	if n.Matches("joining") || n.Matches("init") || !n.Matches("joined") {
		t.Fatal("Not broken")
	}
	if n.String() != "!(joining|init)" {
		t.Fatalf("Not string = %q", n.String())
	}
}

func TestNeighborList(t *testing.T) {
	l := newNeighborList(neighborDecl{name: "kids", max: 2})
	if l.Size() != 0 || l.Full() {
		t.Fatal("fresh list state wrong")
	}
	a := l.Add(10)
	if a == nil || a.Addr != 10 || a.Key != overlay.HashAddress(10) {
		t.Fatalf("entry = %+v", a)
	}
	if l.Add(10) != a {
		t.Fatal("re-add should return existing entry")
	}
	l.Add(11)
	if !l.Full() || l.Add(12) != nil {
		t.Fatal("capacity not enforced")
	}
	if !l.Contains(11) || l.Contains(12) {
		t.Fatal("Contains broken")
	}
	if l.Entry(10) != a || l.Entry(99) != nil {
		t.Fatal("Entry broken")
	}
	if l.First().Addr != 10 {
		t.Fatal("First broken")
	}
	addrs := l.Addrs()
	if len(addrs) != 2 || addrs[0] != 10 || addrs[1] != 11 {
		t.Fatalf("Addrs = %v", addrs)
	}
	if !l.Remove(10) || l.Remove(10) {
		t.Fatal("Remove broken")
	}
	l.Clear()
	if l.Size() != 0 {
		t.Fatal("Clear broken")
	}
}

func TestTimerGenerationsCancelQueuedFires(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1}, echoStack(), 1)
	n := r.nodes[1]
	inst := n.Instance("echo")
	p := echoOf(n)
	// Schedule the one-shot, then cancel it in the same virtual instant.
	n.postFunc(func() {
		ctx := &Context{inst: inst}
		ctx.TimerSched("oneshot", time.Millisecond)
		ctx.TimerCancel("oneshot")
	})
	r.sched.RunFor(time.Second)
	if p.ticks >= 100 {
		t.Fatal("cancelled one-shot fired")
	}
}

// downProto is a lowest layer that records the route and multicast calls
// made on it.
type downProto struct{ calls []APICall }

func (p *downProto) ProtocolName() string { return "down" }

func (p *downProto) Define(d *Def) {
	d.UDPTransport("U")
	record := func(ctx *Context, call *APICall) {
		c := *call
		c.Payload = bytes.Clone(call.Payload)
		p.calls = append(p.calls, c)
	}
	d.OnAPI(overlay.APIRoute, Any, Write, record)
	d.OnAPI(overlay.APIMulticast, Any, Write, record)
}

// routingUpper routes and multicasts one note each on any downcall.
type routingUpper struct{}

func (*routingUpper) ProtocolName() string { return "upper" }

func (*routingUpper) Define(d *Def) {
	d.Message("note", func() overlay.Message { return &upperNote{} }, "")
	d.OnAPI(overlay.APIDowncallExt, Any, Write, func(ctx *Context, call *APICall) {
		_ = RouteMsg(ctx, 0x1234, &upperNote{Text: "r"})
		_ = MulticastMsg(ctx, 0x5678, &upperNote{Text: "m"})
	})
}

// TestRouteAndMulticastMsg: route msg(key, ...) and multicast msg(group,
// ...) hand the layer below one call each, toward the key or group, with the
// message encoded as a protocol payload at the default priority.
func TestRouteAndMulticastMsg(t *testing.T) {
	stack := []Factory{func() Agent { return &downProto{} }, func() Agent { return &routingUpper{} }}
	r := newCoreRig(t, []overlay.Address{1}, stack, 1)
	r.sched.RunFor(10 * time.Millisecond)
	r.nodes[1].Downcall(1, nil)
	r.sched.RunFor(10 * time.Millisecond)
	calls := r.nodes[1].Instance("down").Agent().(*downProto).calls
	if len(calls) != 2 {
		t.Fatalf("%d calls below, want 2", len(calls))
	}
	for i, want := range []struct {
		kind overlay.API
		key  overlay.Key
		text string
	}{{overlay.APIRoute, 0x1234, "r"}, {overlay.APIMulticast, 0x5678, "m"}} {
		c := calls[i]
		key := c.Dest
		if c.Kind == overlay.APIMulticast {
			key = c.Group
		}
		m, err := r.nodes[1].Instance("upper").decode(c.Payload)
		if c.Kind != want.kind || key != want.key || c.PayloadType != ProtocolPayload ||
			c.Priority != overlay.PriorityDefault || err != nil || m.(*upperNote).Text != want.text {
			t.Errorf("call %d: %v toward %v, type %d, priority %d, payload %v (%v)", i, c.Kind, key, c.PayloadType, c.Priority, m, err)
		}
	}
}

// TestJitter: a timer spread draws from the node's seeded source what
// Int63n over the spread in nanoseconds draws, and a spread that is not
// positive draws nothing.
func TestJitter(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1, 2}, echoStack(), 1)
	ctx := &Context{inst: r.nodes[1].Instance("echo")}
	want := rand.New(rand.NewSource(r.nodes[1].seed))
	for _, ms := range []int32{10000, 1, 3} {
		if got, w := Jitter(ctx, ms), time.Duration(want.Int63n(int64(ms)*int64(time.Millisecond))); got != w {
			t.Fatalf("Jitter(%d) = %v, want %v", ms, got, w)
		}
	}
	if Jitter(ctx, 0) != 0 || Jitter(ctx, -5) != 0 || ctx.Rand().Int63() != want.Int63() {
		t.Fatal("a non-positive spread drew from the source")
	}
}
