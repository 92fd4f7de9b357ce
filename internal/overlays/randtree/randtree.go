// Package randtree implements RandTree, the simple randomly constructed
// distribution tree the paper's Figure 2 shows as Bullet's base layer:
// joiners walk down from the root, each saturated node bouncing them to a
// random child, until someone with spare degree adopts them. Multicast
// flows root-down with forward upcalls at every hop; collect flows leaf-up,
// giving the layer above (Bullet's RanSub epochs) its aggregation path.
package randtree

import (
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

// Params tunes the protocol.
type Params struct {
	// MaxDegree bounds children per node (default 4).
	MaxDegree int
	// RejoinDelay is how long an orphan waits before rejoining through the
	// root after its parent fails (default 1 s).
	RejoinDelay time.Duration
	// MaxHops bounds tree-data forwarding (default 32). Churn can briefly
	// cycle the tree — an orphan rejoining under its own descendant — and
	// the hop limit keeps packets from circulating such a cycle forever,
	// exactly as the IP TTL would on a routing loop.
	MaxHops int
}

func (p *Params) setDefaults() {
	if p.MaxDegree <= 0 {
		p.MaxDegree = 4
	}
	if p.RejoinDelay <= 0 {
		p.RejoinDelay = time.Second
	}
	if p.MaxHops <= 0 {
		p.MaxHops = 32
	}
}

// New returns a factory for RandTree agents.
func New(p Params) core.Factory {
	p.setDefaults()
	return func() core.Agent { return &Protocol{p: p} }
}

type joinMsg struct{}

func (m *joinMsg) MsgName() string                { return "join" }
func (m *joinMsg) Encode(*overlay.Writer)         {}
func (m *joinMsg) Decode(r *overlay.Reader) error { return r.Err() }

type joinReply struct {
	Accept   bool
	Redirect overlay.Address
}

func (m *joinReply) MsgName() string { return "join_reply" }
func (m *joinReply) Encode(w *overlay.Writer) {
	w.Bool(m.Accept)
	w.Addr(m.Redirect)
}
func (m *joinReply) Decode(r *overlay.Reader) error {
	m.Accept = r.Bool()
	m.Redirect = r.Addr()
	return r.Err()
}

type mdata struct {
	Src     overlay.Address
	Typ     int32
	TTL     uint32
	Payload []byte
}

func (m *mdata) MsgName() string { return "mdata" }
func (m *mdata) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.U32(uint32(m.Typ))
	w.U32(m.TTL)
	w.Bytes32(m.Payload)
}
func (m *mdata) Decode(r *overlay.Reader) error {
	m.Src = r.Addr()
	m.Typ = int32(r.U32())
	m.TTL = r.U32()
	m.Payload = r.Bytes32()
	return r.Err()
}

type cdata struct {
	Src     overlay.Address
	Typ     int32
	TTL     uint32
	Payload []byte
}

func (m *cdata) MsgName() string { return "cdata" }
func (m *cdata) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.U32(uint32(m.Typ))
	w.U32(m.TTL)
	w.Bytes32(m.Payload)
}
func (m *cdata) Decode(r *overlay.Reader) error {
	m.Src = r.Addr()
	m.Typ = int32(r.U32())
	m.TTL = r.U32()
	m.Payload = r.Bytes32()
	return r.Err()
}

// Protocol is one node's RandTree instance.
type Protocol struct {
	p Params

	self overlay.Address
	root overlay.Address
}

// ProtocolName implements the engine's naming hook.
func (rt *Protocol) ProtocolName() string { return "randtree" }

// Root returns the tree root (the bootstrap).
func (rt *Protocol) Root() overlay.Address { return rt.root }

// Define declares the RandTree FSM: the Go equivalent of randtree.mac. Its
// structure is deliberately identical to what the code generator emits from
// specs/randtree.mac (see internal/codegen's tests).
func (rt *Protocol) Define(d *core.Def) {
	d.States("joining", "joined")
	d.Addressing(core.IPAddressing)

	d.UDPTransport("BEST_EFFORT")
	d.TCPTransport("RELIABLE")

	d.Message("join", func() overlay.Message { return &joinMsg{} }, "BEST_EFFORT")
	d.Message("join_reply", func() overlay.Message { return &joinReply{} }, "RELIABLE")
	d.Message("mdata", func() overlay.Message { return &mdata{} }, "RELIABLE")
	d.Message("cdata", func() overlay.Message { return &cdata{} }, "RELIABLE")
	d.Message("data_ip", func() overlay.Message { return &mdataIP{} }, "RELIABLE")

	d.Timer("rejoin", rt.p.RejoinDelay)
	d.NeighborList("parent", 1, true)
	d.NeighborList("kids", rt.p.MaxDegree, true)

	d.OnAPI(overlay.APIInit, core.In(core.StateInit), core.Write, rt.apiInit)
	d.OnAPI(overlay.APIMulticast, core.In("joined"), core.Read, rt.apiMulticast)
	d.OnAPI(overlay.APICollect, core.In("joined"), core.Read, rt.apiCollect)
	d.OnAPI(overlay.APIRouteIP, core.Any, core.Read, rt.apiRouteIP)
	d.OnAPI(overlay.APIError, core.Any, core.Write, rt.apiError)

	d.OnRecv("join", core.In("joined"), core.Write, rt.recvJoin)
	d.OnRecv("join", core.In("joining", core.StateInit), core.Write, rt.recvJoinEarly)
	d.OnRecv("join_reply", core.In("joining"), core.Write, rt.recvJoinReply)
	d.OnRecv("mdata", core.Any, core.Read, rt.recvMdata)
	d.OnRecv("cdata", core.Any, core.Read, rt.recvCdata)
	d.OnRecv("data_ip", core.Any, core.Read, rt.recvDataIP)

	d.OnTimer("rejoin", core.In("joining"), core.Write, rt.onRejoin)
}

func (rt *Protocol) apiInit(ctx *core.Context, call *core.APICall) {
	rt.self = ctx.Self()
	rt.root = call.Bootstrap
	if rt.root == rt.self || rt.root == overlay.NilAddress {
		ctx.StateChange("joined") // the bootstrap is the root
		return
	}
	ctx.StateChange("joining")
	_ = ctx.Send(rt.root, &joinMsg{}, overlay.PriorityDefault)
	ctx.TimerSched("rejoin", 3*rt.p.RejoinDelay) // retry lost joins
}

func (rt *Protocol) recvJoin(ctx *core.Context, ev *core.MsgEvent) {
	kids := ctx.Neighbors("kids")
	if kids.Contains(ev.From) {
		_ = ctx.Send(ev.From, &joinReply{Accept: true}, overlay.PriorityDefault)
		return
	}
	if kids.Full() {
		// Bounce to a random child: the random walk that names the tree.
		child := kids.Random(ctx.Rand())
		_ = ctx.Send(ev.From, &joinReply{Redirect: child.Addr}, overlay.PriorityDefault)
		return
	}
	kids.Add(ev.From)
	_ = ctx.Send(ev.From, &joinReply{Accept: true}, overlay.PriorityDefault)
	ctx.NotifyNeighbors(overlay.NbrTypeChild, kids.Addrs())
}

// recvJoinEarly handles a join racing our own: bounce to the root.
func (rt *Protocol) recvJoinEarly(ctx *core.Context, ev *core.MsgEvent) {
	_ = ctx.Send(ev.From, &joinReply{Redirect: rt.root}, overlay.PriorityDefault)
}

func (rt *Protocol) recvJoinReply(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*joinReply)
	if !m.Accept {
		target := m.Redirect
		if target == overlay.NilAddress || target == rt.self {
			target = rt.root
		}
		_ = ctx.Send(target, &joinMsg{}, overlay.PriorityDefault)
		ctx.TimerResched("rejoin", 3*rt.p.RejoinDelay)
		return
	}
	parent := ctx.Neighbors("parent")
	parent.Clear()
	parent.Add(ev.From)
	ctx.TimerCancel("rejoin")
	ctx.StateChange("joined")
	ctx.NotifyNeighbors(overlay.NbrTypeParent, []overlay.Address{ev.From})
}

func (rt *Protocol) onRejoin(ctx *core.Context) {
	_ = ctx.Send(rt.root, &joinMsg{}, overlay.PriorityDefault)
	ctx.TimerSched("rejoin", 3*rt.p.RejoinDelay)
}

func (rt *Protocol) apiError(ctx *core.Context, call *core.APICall) {
	parent := ctx.Neighbors("parent")
	// The self != root guard matters: the root never has a parent, so a
	// dead *child* of the root would otherwise read as "my parent died"
	// and send the root join-chasing itself in a zero-latency loop
	// (specs/randtree.mac always had the guard; the port had drifted).
	if parent.Size() == 0 && ctx.State() == "joined" && rt.self != rt.root && call.Failed != overlay.NilAddress {
		// Our parent died (the engine already removed it): rejoin via root.
		ctx.StateChange("joining")
		ctx.TimerSched("rejoin", rt.p.RejoinDelay)
	}
	ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
}

func (rt *Protocol) apiMulticast(ctx *core.Context, call *core.APICall) {
	m := &mdata{Src: rt.self, Typ: call.PayloadType, TTL: uint32(rt.p.MaxHops), Payload: call.Payload}
	rt.disseminate(ctx, m, overlay.NilAddress, call.Priority)
}

func (rt *Protocol) disseminate(ctx *core.Context, m *mdata, except overlay.Address, pri int) {
	if m.TTL > 0 {
		for _, kid := range ctx.Neighbors("kids").Addrs() {
			if kid == except {
				continue
			}
			ok, next, payload := ctx.Forward(m.Payload, m.Typ, kid, overlay.HashAddress(kid))
			if !ok {
				continue
			}
			fwd := &mdata{Src: m.Src, Typ: m.Typ, TTL: m.TTL - 1, Payload: payload}
			_ = ctx.Send(next, fwd, pri)
		}
	}
	if m.Src != rt.self {
		ctx.Deliver(m.Payload, m.Typ, m.Src)
	}
}

func (rt *Protocol) recvMdata(ctx *core.Context, ev *core.MsgEvent) {
	rt.disseminate(ctx, ev.Msg.(*mdata), ev.From, overlay.PriorityDefault)
}

func (rt *Protocol) apiCollect(ctx *core.Context, call *core.APICall) {
	rt.sendUp(ctx, &cdata{Src: rt.self, Typ: call.PayloadType, TTL: uint32(rt.p.MaxHops), Payload: call.Payload}, call.Priority)
}

func (rt *Protocol) sendUp(ctx *core.Context, m *cdata, pri int) {
	parent := ctx.Neighbors("parent").First()
	if parent == nil {
		// At the root: collection terminates here.
		ctx.Deliver(m.Payload, m.Typ, m.Src)
		return
	}
	_ = ctx.Send(parent.Addr, m, pri)
}

func (rt *Protocol) recvCdata(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*cdata)
	if m.TTL == 0 {
		return // parent-chain cycle under churn: the hop limit ends it
	}
	m.TTL--
	// Offer the payload to the layer above for in-path aggregation; it may
	// rewrite it through the extensible downcall before it travels on.
	ok, _, payload := ctx.Forward(m.Payload, m.Typ, rt.self, ctx.SelfKey())
	if !ok {
		return
	}
	m.Payload = payload
	rt.sendUp(ctx, m, overlay.PriorityDefault)
}

func (rt *Protocol) apiRouteIP(ctx *core.Context, call *core.APICall) {
	if call.DestIP == rt.self {
		ctx.Deliver(call.Payload, call.PayloadType, rt.self)
		return
	}
	_ = ctx.Send(call.DestIP, &mdataIP{Src: rt.self, Typ: call.PayloadType, Payload: call.Payload}, call.Priority)
}

func (rt *Protocol) recvDataIP(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*mdataIP)
	ctx.Deliver(m.Payload, m.Typ, m.Src)
}

type mdataIP struct {
	Src     overlay.Address
	Typ     int32
	Payload []byte
}

func (m *mdataIP) MsgName() string { return "data_ip" }
func (m *mdataIP) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.U32(uint32(m.Typ))
	w.Bytes32(m.Payload)
}
func (m *mdataIP) Decode(r *overlay.Reader) error {
	m.Src = r.Addr()
	m.Typ = int32(r.U32())
	m.Payload = r.Bytes32()
	return r.Err()
}
