// Code generated by "macedon gen" from specs/randtree.mac. DO NOT EDIT.

// Package randtree is the generated MACEDON agent for protocol "randtree".
package randtree

import (
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

type msgJoin struct{}

func (m *msgJoin) MsgName() string { return "join" }

func (m *msgJoin) Encode(*overlay.Writer) {}

func (m *msgJoin) Decode(r *overlay.Reader) error { return r.Err() }

type msgJoinReply struct {
	Accept   int32
	Redirect overlay.Address
}

func (m *msgJoinReply) MsgName() string { return "join_reply" }

func (m *msgJoinReply) Encode(w *overlay.Writer) {
	w.I32(m.Accept)
	w.Addr(m.Redirect)
}

func (m *msgJoinReply) Decode(r *overlay.Reader) error {
	m.Accept = r.I32()
	m.Redirect = r.Addr()
	return r.Err()
}

type msgMdata struct {
	Src     overlay.Address
	Typ     int32
	Ttl     int32
	Payload []byte
}

func (m *msgMdata) MsgName() string { return "mdata" }

func (m *msgMdata) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.I32(m.Typ)
	w.I32(m.Ttl)
	w.Bytes32(m.Payload)
}

func (m *msgMdata) Decode(r *overlay.Reader) error {
	m.Src = r.Addr()
	m.Typ = r.I32()
	m.Ttl = r.I32()
	m.Payload = r.Bytes32()
	return r.Err()
}

type msgCdata struct {
	Src     overlay.Address
	Typ     int32
	Ttl     int32
	Payload []byte
}

func (m *msgCdata) MsgName() string { return "cdata" }

func (m *msgCdata) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.I32(m.Typ)
	w.I32(m.Ttl)
	w.Bytes32(m.Payload)
}

func (m *msgCdata) Decode(r *overlay.Reader) error {
	m.Src = r.Addr()
	m.Typ = r.I32()
	m.Ttl = r.I32()
	m.Payload = r.Bytes32()
	return r.Err()
}

type msgDataIp struct {
	Src     overlay.Address
	Typ     int32
	Payload []byte
}

func (m *msgDataIp) MsgName() string { return "data_ip" }

func (m *msgDataIp) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.I32(m.Typ)
	w.Bytes32(m.Payload)
}

func (m *msgDataIp) Decode(r *overlay.Reader) error {
	m.Src = r.Addr()
	m.Typ = r.I32()
	m.Payload = r.Bytes32()
	return r.Err()
}

type msgDrop struct{}

func (m *msgDrop) MsgName() string { return "drop" }

func (m *msgDrop) Encode(*overlay.Writer) {}

func (m *msgDrop) Decode(r *overlay.Reader) error { return r.Err() }

// msgScratch is where this agent builds the messages it sends: per declared
// message one send slot (tx), which a send statement fills and hands to
// ctx.Send. A received message lives in the engine's receive slot for its
// type, which is not this slot, so a forwarding transition can build the
// message it sends from fields of the one it received.
//
// Reusing a send slot is safe because ctx.Send encodes the message before it
// returns and keeps no reference to it. Nothing generated keeps ev.Msg or a
// sent message past its transition.
type msgScratch struct{ tx msgSlots }

// msgSlots holds one message of every declared type.
type msgSlots struct {
	Join      msgJoin
	JoinReply msgJoinReply
	Mdata     msgMdata
	Cdata     msgCdata
	DataIp    msgDataIp
	Drop      msgDrop
}

// StateCopyOpaque keeps the scratch out of checkpoint images: between events
// it is garbage, and a copied slot would pin the payload it last saw.
func (*msgScratch) StateCopyOpaque() {}

// Agent is the generated protocol instance.
type Agent struct {
	Root overlay.Address

	io msgScratch // a named field: embedding would promote StateCopyOpaque to Agent
}

// New returns a factory for generated randtree agents.
func New() core.Factory {
	return func() core.Agent { return &Agent{} }
}

// ProtocolName implements the engine's naming hook.
func (a *Agent) ProtocolName() string { return "randtree" }

// DefinedByType makes the agent core.TypeDefined: Define reads no agent and
// no transition keeps ev.Msg, so one Def serves every instance.
func (*Agent) DefinedByType() {}

// SetParam sets the int auxiliary variable name to v, reporting whether
// the spec declares one: how a scenario's params reach the agent.
func (*Agent) SetParam(string, int32) bool { return false }

// Routing fills v with the routing state the spec's routing declaration
// names: how the correctness plane and the fuzzer read this agent.
func (a *Agent) Routing(inst *core.Instance, v *core.RoutingView) {
	v.Kind = core.RoutingTree
	v.Root = a.Root
	v.Parent = core.ListGet(inst.NeighborsSnapshot("parent"), 0)
	v.Children = inst.NeighborsSnapshot("kids")
}

// Define declares the generated FSM.
func (*Agent) Define(d *core.Def) {
	d.States("joining", "joined")
	d.Addressing(core.IPAddressing)
	d.UDPTransport("BEST_EFFORT")
	d.TCPTransport("RELIABLE")
	d.Message("join", func() overlay.Message { return &msgJoin{} }, "BEST_EFFORT")
	d.Message("join_reply", func() overlay.Message { return &msgJoinReply{} }, "RELIABLE")
	d.Message("mdata", func() overlay.Message { return &msgMdata{} }, "RELIABLE")
	d.Message("cdata", func() overlay.Message { return &msgCdata{} }, "RELIABLE")
	d.Message("data_ip", func() overlay.Message { return &msgDataIp{} }, "RELIABLE")
	d.Message("drop", func() overlay.Message { return &msgDrop{} }, "BEST_EFFORT")
	d.Timer("rejoin", 3000*time.Millisecond)
	d.NeighborList("parent", 1, true)
	d.NeighborList("kids", 4, true)
	d.OnAPI(overlay.APIInit, core.In("init"), core.Write, core.APIOf((*Agent).transition0))
	d.OnRecv("join", core.In("joined"), core.Write, core.RecvOf((*Agent).transition1))
	d.OnRecv("join", core.In("joining", "init"), core.Write, core.RecvOf((*Agent).transition2))
	d.OnRecv("join_reply", core.In("joining"), core.Write, core.RecvOf((*Agent).transition3))
	d.OnTimer("rejoin", core.In("joining"), core.Write, core.TimerOf((*Agent).transition4))
	d.OnAPI(overlay.APIError, core.In("joined"), core.Write, core.APIOf((*Agent).transition5))
	d.OnAPI(overlay.APIError, core.Not(core.In("joined")), core.Write, core.APIOf((*Agent).transition6))
	d.OnRecv("drop", core.Any, core.Write, core.RecvOf((*Agent).transition7))
	d.OnAPI(overlay.APIMulticast, core.In("joined"), core.Read, core.APIOf((*Agent).transition8))
	d.OnRecv("mdata", core.Any, core.Read, core.RecvOf((*Agent).transition9))
	d.OnAPI(overlay.APICollect, core.In("joined"), core.Read, core.APIOf((*Agent).transition10))
	d.OnRecv("cdata", core.Any, core.Read, core.RecvOf((*Agent).transition11))
	d.OnAPI(overlay.APIRouteIP, core.Any, core.Read, core.APIOf((*Agent).transition12))
	d.OnRecv("data_ip", core.Any, core.Read, core.RecvOf((*Agent).transition13))
}

// transition0 implements: (init) API init [locking write;]
func (a *Agent) transition0(ctx *core.Context, call *core.APICall) {
	a.Root = call.Bootstrap
	if a.Root == ctx.Self() {
		ctx.StateChange("joined")
	} else {
		ctx.StateChange("joining")
		_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
		ctx.TimerSched("rejoin", 3000*time.Millisecond)
	}
}

// transition1 implements: (joined) recv join [locking write;]
func (a *Agent) transition1(ctx *core.Context, ev *core.MsgEvent, m *msgJoin) {
	if ctx.Neighbors("kids").Contains(ev.From) {
		_ = ctx.Send(ev.From, core.Put(&a.io.tx.JoinReply, msgJoinReply{Accept: 1}), overlay.PriorityDefault)
	} else {
		if ctx.Neighbors("kids").Full() {
			_ = ctx.Send(ev.From, core.Put(&a.io.tx.JoinReply, msgJoinReply{Accept: 0, Redirect: core.NeighborRandom(ctx, "kids")}), overlay.PriorityDefault)
		} else {
			ctx.Neighbors("kids").Add(ev.From)
			_ = ctx.Send(ev.From, core.Put(&a.io.tx.JoinReply, msgJoinReply{Accept: 1}), overlay.PriorityDefault)
			ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
		}
	}
}

// transition2 implements: (joining|init) recv join [locking write;]
func (a *Agent) transition2(ctx *core.Context, ev *core.MsgEvent, m *msgJoin) {
	_ = ctx.Send(ev.From, core.Put(&a.io.tx.JoinReply, msgJoinReply{Accept: 0, Redirect: a.Root}), overlay.PriorityDefault)
}

// transition3 implements: (joining) recv join_reply [locking write;]
func (a *Agent) transition3(ctx *core.Context, ev *core.MsgEvent, m *msgJoinReply) {
	if m.Accept == 1 {
		ctx.Neighbors("parent").Clear()
		ctx.Neighbors("parent").Add(ev.From)
		ctx.TimerCancel("rejoin")
		ctx.StateChange("joined")
		ctx.NotifyNeighbors(overlay.NbrTypeParent, ctx.Neighbors("parent").Addrs())
	} else {
		if (m.Redirect == 0) || (m.Redirect == ctx.Self()) {
			_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
			ctx.TimerResched("rejoin", 3000*time.Millisecond)
		} else {
			_ = ctx.Send(m.Redirect, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
			ctx.TimerResched("rejoin", 3000*time.Millisecond)
		}
	}
}

// transition4 implements: (joining) timer rejoin [locking write;]
func (a *Agent) transition4(ctx *core.Context) {
	_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
	ctx.TimerSched("rejoin", 3000*time.Millisecond)
}

// transition5 implements: (joined) API error [locking write;]
func (a *Agent) transition5(ctx *core.Context, call *core.APICall) {
	if (int32(ctx.Neighbors("parent").Size()) == 0) && (ctx.Self() != a.Root) {
		ctx.StateChange("joining")
		ctx.TimerSched("rejoin", 1000*time.Millisecond)
	}
	_ = ctx.Send(call.Failed, core.Put(&a.io.tx.Drop, msgDrop{}), overlay.PriorityDefault)
	ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
}

// transition6 implements: !(joined) API error [locking write;]
func (a *Agent) transition6(ctx *core.Context, call *core.APICall) {
	_ = ctx.Send(call.Failed, core.Put(&a.io.tx.Drop, msgDrop{}), overlay.PriorityDefault)
	ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
}

// transition7 implements: any recv drop [locking write;]
func (a *Agent) transition7(ctx *core.Context, ev *core.MsgEvent, m *msgDrop) {
	if ctx.Neighbors("kids").Contains(ev.From) {
		ctx.Neighbors("kids").Remove(ev.From)
		ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
	}
	if ctx.Neighbors("parent").Contains(ev.From) {
		ctx.Neighbors("parent").Clear()
		ctx.StateChange("joining")
		_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
		ctx.TimerResched("rejoin", 3000*time.Millisecond)
	}
}

// transition8 implements: (joined) API multicast [locking read;]
func (a *Agent) transition8(ctx *core.Context, call *core.APICall) {
	for _, k := range ctx.Neighbors("kids").Addrs() {
		fwOk, _, fwPayload := ctx.Forward(call.Payload, call.PayloadType, k, overlay.HashAddress(k))
		if !fwOk {
			return
		}
		_ = fwPayload
		_ = ctx.Send(k, core.Put(&a.io.tx.Mdata, msgMdata{Src: ctx.Self(), Typ: call.PayloadType, Ttl: 32, Payload: fwPayload}), overlay.PriorityDefault)
	}
}

// transition9 implements: any recv mdata [locking read;]
func (a *Agent) transition9(ctx *core.Context, ev *core.MsgEvent, m *msgMdata) {
	for _, k := range ctx.Neighbors("kids").Addrs() {
		if (k != ev.From) && (m.Ttl > 0) {
			fwOk, _, fwPayload := ctx.Forward(m.Payload, m.Typ, k, overlay.HashAddress(k))
			if !fwOk {
				return
			}
			_ = fwPayload
			_ = ctx.Send(k, core.Put(&a.io.tx.Mdata, msgMdata{Src: m.Src, Typ: m.Typ, Ttl: (m.Ttl - 1), Payload: fwPayload}), overlay.PriorityDefault)
		}
	}
	if m.Src != ctx.Self() {
		ctx.Deliver(m.Payload, m.Typ, m.Src)
	}
}

// transition10 implements: (joined) API collect [locking read;]
func (a *Agent) transition10(ctx *core.Context, call *core.APICall) {
	if int32(ctx.Neighbors("parent").Size()) == 0 {
		ctx.Deliver(call.Payload, call.PayloadType, ctx.Self())
	} else {
		_ = ctx.Send(core.NeighborFirst(ctx, "parent"), core.Put(&a.io.tx.Cdata, msgCdata{Src: ctx.Self(), Typ: call.PayloadType, Ttl: 32, Payload: call.Payload}), overlay.PriorityDefault)
	}
}

// transition11 implements: any recv cdata [locking read;]
func (a *Agent) transition11(ctx *core.Context, ev *core.MsgEvent, m *msgCdata) {
	if m.Ttl > 0 {
		fwOk, _, fwPayload := ctx.Forward(m.Payload, m.Typ, ctx.Self(), overlay.HashAddress(ctx.Self()))
		if !fwOk {
			return
		}
		_ = fwPayload
		if int32(ctx.Neighbors("parent").Size()) == 0 {
			ctx.Deliver(fwPayload, m.Typ, m.Src)
		} else {
			_ = ctx.Send(core.NeighborFirst(ctx, "parent"), core.Put(&a.io.tx.Cdata, msgCdata{Src: m.Src, Typ: m.Typ, Ttl: (m.Ttl - 1), Payload: fwPayload}), overlay.PriorityDefault)
		}
	}
}

// transition12 implements: any API routeIP [locking read;]
func (a *Agent) transition12(ctx *core.Context, call *core.APICall) {
	if call.DestIP == ctx.Self() {
		ctx.Deliver(call.Payload, call.PayloadType, ctx.Self())
	} else {
		_ = ctx.Send(call.DestIP, core.Put(&a.io.tx.DataIp, msgDataIp{Src: ctx.Self(), Typ: call.PayloadType, Payload: call.Payload}), overlay.PriorityDefault)
	}
}

// transition13 implements: any recv data_ip [locking read;]
func (a *Agent) transition13(ctx *core.Context, ev *core.MsgEvent, m *msgDataIp) {
	ctx.Deliver(m.Payload, m.Typ, m.Src)
}
