// Code generated by "macedon gen" from specs/scribe.mac. DO NOT EDIT.

// Package scribe is the generated MACEDON agent for protocol "scribe".
package scribe

import (
	"slices"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

type msgJoinG struct {
	Group  overlay.Key
	Joiner overlay.Address
	Direct bool
}

func (m *msgJoinG) MsgName() string { return "join_g" }

func (m *msgJoinG) Encode(w *overlay.Writer) {
	w.Key(m.Group)
	w.Addr(m.Joiner)
	w.Bool(m.Direct)
}

func (m *msgJoinG) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	m.Joiner = r.Addr()
	m.Direct = r.Bool()
	return r.Err()
}

type msgJoinAck struct {
	Group  overlay.Key
	Direct bool
}

func (m *msgJoinAck) MsgName() string { return "join_ack" }

func (m *msgJoinAck) Encode(w *overlay.Writer) {
	w.Key(m.Group)
	w.Bool(m.Direct)
}

func (m *msgJoinAck) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	m.Direct = r.Bool()
	return r.Err()
}

type msgJoinRedirect struct {
	Group overlay.Key
	To    overlay.Address
}

func (m *msgJoinRedirect) MsgName() string { return "join_redirect" }

func (m *msgJoinRedirect) Encode(w *overlay.Writer) {
	w.Key(m.Group)
	w.Addr(m.To)
}

func (m *msgJoinRedirect) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	m.To = r.Addr()
	return r.Err()
}

type msgLeaveG struct {
	Group overlay.Key
}

func (m *msgLeaveG) MsgName() string { return "leave_g" }

func (m *msgLeaveG) Encode(w *overlay.Writer) {
	w.Key(m.Group)
}

func (m *msgLeaveG) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	return r.Err()
}

type msgCreateG struct {
	Group overlay.Key
}

func (m *msgCreateG) MsgName() string { return "create_g" }

func (m *msgCreateG) Encode(w *overlay.Writer) {
	w.Key(m.Group)
}

func (m *msgCreateG) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	return r.Err()
}

type msgMdata struct {
	Group   overlay.Key
	Src     overlay.Address
	Seq     overlay.Key
	Typ     int32
	Payload []byte
}

func (m *msgMdata) MsgName() string { return "mdata" }

func (m *msgMdata) Encode(w *overlay.Writer) {
	w.Key(m.Group)
	w.Addr(m.Src)
	w.Key(m.Seq)
	w.I32(m.Typ)
	w.Bytes32(m.Payload)
}

func (m *msgMdata) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	m.Src = r.Addr()
	m.Seq = r.Key()
	m.Typ = r.I32()
	m.Payload = r.Bytes32()
	return r.Err()
}

type msgCdata struct {
	Group   overlay.Key
	Src     overlay.Address
	Typ     int32
	Payload []byte
}

func (m *msgCdata) MsgName() string { return "cdata" }

func (m *msgCdata) Encode(w *overlay.Writer) {
	w.Key(m.Group)
	w.Addr(m.Src)
	w.I32(m.Typ)
	w.Bytes32(m.Payload)
}

func (m *msgCdata) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	m.Src = r.Addr()
	m.Typ = r.I32()
	m.Payload = r.Bytes32()
	return r.Err()
}

type msgAcast struct {
	Group   overlay.Key
	Src     overlay.Address
	Typ     int32
	Payload []byte
	Visited []overlay.Address
}

func (m *msgAcast) MsgName() string { return "acast" }

func (m *msgAcast) Encode(w *overlay.Writer) {
	w.Key(m.Group)
	w.Addr(m.Src)
	w.I32(m.Typ)
	w.Bytes32(m.Payload)
	w.Addrs(m.Visited)
}

func (m *msgAcast) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	m.Src = r.Addr()
	m.Typ = r.I32()
	m.Payload = r.Bytes32()
	m.Visited = r.AppendAddrs(m.Visited[:0])
	return r.Err()
}

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
	JoinG        msgJoinG
	JoinAck      msgJoinAck
	JoinRedirect msgJoinRedirect
	LeaveG       msgLeaveG
	CreateG      msgCreateG
	Mdata        msgMdata
	Cdata        msgCdata
	Acast        msgAcast
}

// StateCopyOpaque keeps the scratch out of checkpoint images: between events
// it is garbage, and a copied slot would pin the payload it last saw.
func (*msgScratch) StateCopyOpaque() {}

// GroupsEntry is one record of the keytable groups.
type GroupsEntry struct {
	Member    bool
	Forwarder bool
	Root      bool
	Parent    overlay.Address
	Missed    int32
	Children  core.Tally
}

// Agent is the generated protocol instance.
type Agent struct {
	Groups      map[overlay.Key]*GroupsEntry
	Seen        map[overlay.Key]overlay.Address
	NextSeq     overlay.Key
	RefreshMs   int32
	MaxChildren int32

	io msgScratch // a named field: embedding would promote StateCopyOpaque to Agent
}

// New returns a factory for generated scribe agents.
func New() core.Factory {
	return func() core.Agent { return &Agent{} }
}

// ProtocolName implements the engine's naming hook.
func (a *Agent) ProtocolName() string { return "scribe" }

// DefinedByType makes the agent core.TypeDefined: Define reads no agent and
// no transition keeps ev.Msg, so one Def serves every instance.
func (*Agent) DefinedByType() {}

// SetParam sets the int auxiliary variable name to v, reporting whether
// the spec declares one: how a scenario's params reach the agent.
func (a *Agent) SetParam(name string, v int32) bool {
	switch name {
	case "refresh_ms":
		a.RefreshMs = v
	case "max_children":
		a.MaxChildren = v
	default:
		return false
	}
	return true
}

// Define declares the generated FSM.
func (*Agent) Define(d *core.Def) {
	d.States("running")
	d.Addressing(core.HashAddressing)
	d.Message("join_g", func() overlay.Message { return &msgJoinG{} }, "")
	d.Message("join_ack", func() overlay.Message { return &msgJoinAck{} }, "")
	d.Message("join_redirect", func() overlay.Message { return &msgJoinRedirect{} }, "")
	d.Message("leave_g", func() overlay.Message { return &msgLeaveG{} }, "")
	d.Message("create_g", func() overlay.Message { return &msgCreateG{} }, "")
	d.Message("mdata", func() overlay.Message { return &msgMdata{} }, "")
	d.Message("cdata", func() overlay.Message { return &msgCdata{} }, "")
	d.Message("acast", func() overlay.Message { return &msgAcast{} }, "")
	d.Timer("refresh", 0)
	d.OnAPI(overlay.APIInit, core.In("init"), core.Write, core.APIOf((*Agent).transition0))
	d.OnAPI(overlay.APICreateGroup, core.Any, core.Write, core.APIOf((*Agent).transition1))
	d.OnRecv("create_g", core.Any, core.Write, core.RecvOf((*Agent).transition2))
	d.OnAPI(overlay.APIJoin, core.Any, core.Write, core.APIOf((*Agent).transition3))
	d.OnForward("join_g", core.Any, core.Write, core.RecvOf((*Agent).transition4))
	d.OnRecv("join_g", core.Any, core.Write, core.RecvOf((*Agent).transition5))
	d.OnRecv("join_ack", core.Any, core.Write, core.RecvOf((*Agent).transition6))
	d.OnRecv("join_redirect", core.Any, core.Write, core.RecvOf((*Agent).transition7))
	d.OnAPI(overlay.APILeave, core.Any, core.Write, core.APIOf((*Agent).transition8))
	d.OnRecv("leave_g", core.Any, core.Write, core.RecvOf((*Agent).transition9))
	d.OnTimer("refresh", core.In("running"), core.Write, core.TimerOf((*Agent).transition10))
	d.OnAPI(overlay.APIMulticast, core.Any, core.Write, core.APIOf((*Agent).transition11))
	d.OnRecv("mdata", core.Any, core.Write, core.RecvOf((*Agent).transition12))
	d.OnAPI(overlay.APICollect, core.Any, core.Write, core.APIOf((*Agent).transition13))
	d.OnRecv("cdata", core.Any, core.Write, core.RecvOf((*Agent).transition14))
	d.OnAPI(overlay.APIAnycast, core.Any, core.Write, core.APIOf((*Agent).transition15))
	d.OnRecv("acast", core.Any, core.Write, core.RecvOf((*Agent).transition16))
	d.OnAPI(overlay.APIRoute, core.Any, core.Write, core.APIOf((*Agent).transition17))
	d.OnAPI(overlay.APIRouteIP, core.Any, core.Write, core.APIOf((*Agent).transition18))
}

// transition0 implements: (init) API init [locking write;]
func (a *Agent) transition0(ctx *core.Context, call *core.APICall) {
	if a.RefreshMs == 0 {
		a.RefreshMs = 10000
	}
	ctx.StateChange("running")
	ctx.TimerSched("refresh", time.Duration((a.RefreshMs/2))*time.Millisecond+core.Jitter(ctx, a.RefreshMs))
}

// transition1 implements: any API create_group [locking write;]
func (a *Agent) transition1(ctx *core.Context, call *core.APICall) {
	_ = core.RouteMsg(ctx, call.Group, core.Put(&a.io.tx.CreateG, msgCreateG{Group: call.Group}))
}

// transition2 implements: any recv create_g [locking write;]
func (a *Agent) transition2(ctx *core.Context, ev *core.MsgEvent, m *msgCreateG) {
	core.KeyEntry(&a.Groups, m.Group).Root = true
	core.KeyEntry(&a.Groups, m.Group).Forwarder = true
}

// transition3 implements: any API join [locking write;]
func (a *Agent) transition3(ctx *core.Context, call *core.APICall) {
	core.KeyEntry(&a.Groups, call.Group).Member = true
	if core.KeyRead(a.Groups, call.Group).Forwarder || core.KeyRead(a.Groups, call.Group).Root {
		return
	}
	_ = core.RouteMsg(ctx, call.Group, core.Put(&a.io.tx.JoinG, msgJoinG{Group: call.Group, Joiner: ctx.Self(), Direct: false}))
}

// transition4 implements: any forward join_g [locking write;]
func (a *Agent) transition4(ctx *core.Context, ev *core.MsgEvent, m *msgJoinG) {
	var g overlay.Key = m.Group
	_ = g
	var j overlay.Address = m.Joiner
	_ = j
	if j == ctx.Self() {
		return
	}
	var known bool = slices.Contains(core.KeyRead(a.Groups, g).Children.Addrs, j)
	_ = known
	if (!(known) && (a.MaxChildren > 0)) && (int32(len(core.KeyRead(a.Groups, g).Children.Addrs)) >= a.MaxChildren) {
		_ = ctx.Send(j, core.Put(&a.io.tx.JoinRedirect, msgJoinRedirect{Group: g, To: core.ListRandom(ctx, core.KeyRead(a.Groups, g).Children.Addrs)}), overlay.PriorityDefault)
		ev.Quash = true
		return
	}
	core.TallyHeard(&core.KeyEntry(&a.Groups, g).Children, j)
	if !(known) {
		ctx.NotifyNeighbors(overlay.NbrTypeChild, append([]overlay.Address(nil), core.KeyRead(a.Groups, g).Children.Addrs...))
	}
	_ = ctx.Send(j, core.Put(&a.io.tx.JoinAck, msgJoinAck{Group: g, Direct: false}), overlay.PriorityDefault)
	if core.KeyRead(a.Groups, g).Forwarder || core.KeyRead(a.Groups, g).Root {
		ev.Quash = true
		return
	}
	core.KeyEntry(&a.Groups, g).Forwarder = true
	m.Joiner = ctx.Self()
}

// transition5 implements: any recv join_g [locking write;]
func (a *Agent) transition5(ctx *core.Context, ev *core.MsgEvent, m *msgJoinG) {
	var g overlay.Key = m.Group
	_ = g
	var j overlay.Address = m.Joiner
	_ = j
	if !(m.Direct) {
		core.KeyEntry(&a.Groups, g).Root = true
		core.KeyEntry(&a.Groups, g).Forwarder = true
	}
	if j == ctx.Self() {
		return
	}
	var known bool = slices.Contains(core.KeyRead(a.Groups, g).Children.Addrs, j)
	_ = known
	if (!(known) && (a.MaxChildren > 0)) && (int32(len(core.KeyRead(a.Groups, g).Children.Addrs)) >= a.MaxChildren) {
		_ = ctx.Send(j, core.Put(&a.io.tx.JoinRedirect, msgJoinRedirect{Group: g, To: core.ListRandom(ctx, core.KeyRead(a.Groups, g).Children.Addrs)}), overlay.PriorityDefault)
		return
	}
	core.TallyHeard(&core.KeyEntry(&a.Groups, g).Children, j)
	if !(known) {
		ctx.NotifyNeighbors(overlay.NbrTypeChild, append([]overlay.Address(nil), core.KeyRead(a.Groups, g).Children.Addrs...))
	}
	_ = ctx.Send(j, core.Put(&a.io.tx.JoinAck, msgJoinAck{Group: g, Direct: m.Direct}), overlay.PriorityDefault)
}

// transition6 implements: any recv join_ack [locking write;]
func (a *Agent) transition6(ctx *core.Context, ev *core.MsgEvent, m *msgJoinAck) {
	var g overlay.Key = m.Group
	_ = g
	var old overlay.Address = core.KeyRead(a.Groups, g).Parent
	_ = old
	if (m.Direct && (old != overlay.NilAddress)) && (old != ev.From) {
		return
	}
	if core.KeyRead(a.Groups, g).Root && (ev.From != ctx.Self()) {
		core.KeyEntry(&a.Groups, g).Root = false
	}
	if (old != overlay.NilAddress) && (old != ev.From) {
		_ = ctx.Send(old, core.Put(&a.io.tx.LeaveG, msgLeaveG{Group: g}), overlay.PriorityDefault)
	}
	core.KeyEntry(&a.Groups, g).Parent = ev.From
	core.KeyEntry(&a.Groups, g).Missed = 0
	ctx.NotifyNeighbors(overlay.NbrTypeParent, []overlay.Address{ev.From})
}

// transition7 implements: any recv join_redirect [locking write;]
func (a *Agent) transition7(ctx *core.Context, ev *core.MsgEvent, m *msgJoinRedirect) {
	var g overlay.Key = m.Group
	_ = g
	if (core.KeyRead(a.Groups, g).Parent != overlay.NilAddress) || (m.To == ctx.Self()) {
		return
	}
	_ = ctx.Send(m.To, core.Put(&a.io.tx.JoinG, msgJoinG{Group: g, Joiner: ctx.Self(), Direct: true}), overlay.PriorityDefault)
}

// transition8 implements: any API leave [locking write;]
func (a *Agent) transition8(ctx *core.Context, call *core.APICall) {
	core.KeyEntry(&a.Groups, call.Group).Member = false
	if !(core.KeyRead(a.Groups, call.Group).Root) && (int32(len(core.KeyRead(a.Groups, call.Group).Children.Addrs)) == 0) {
		core.KeyEntry(&a.Groups, call.Group).Forwarder = false
		if core.KeyRead(a.Groups, call.Group).Parent != overlay.NilAddress {
			_ = ctx.Send(core.KeyRead(a.Groups, call.Group).Parent, core.Put(&a.io.tx.LeaveG, msgLeaveG{Group: call.Group}), overlay.PriorityDefault)
			core.KeyEntry(&a.Groups, call.Group).Parent = overlay.NilAddress
		}
	}
}

// transition9 implements: any recv leave_g [locking write;]
func (a *Agent) transition9(ctx *core.Context, ev *core.MsgEvent, m *msgLeaveG) {
	var g overlay.Key = m.Group
	_ = g
	core.TallyRemove(&core.KeyEntry(&a.Groups, g).Children, ev.From)
	if (!(core.KeyRead(a.Groups, g).Member) && !(core.KeyRead(a.Groups, g).Root)) && (int32(len(core.KeyRead(a.Groups, g).Children.Addrs)) == 0) {
		core.KeyEntry(&a.Groups, g).Forwarder = false
		if core.KeyRead(a.Groups, g).Parent != overlay.NilAddress {
			_ = ctx.Send(core.KeyRead(a.Groups, g).Parent, core.Put(&a.io.tx.LeaveG, msgLeaveG{Group: g}), overlay.PriorityDefault)
			core.KeyEntry(&a.Groups, g).Parent = overlay.NilAddress
		}
	}
}

// transition10 implements: (running) timer refresh [locking write;]
func (a *Agent) transition10(ctx *core.Context) {
	for _, g := range core.Keys(a.Groups) {
		core.KeyEntry(&a.Groups, g).Missed = (core.KeyRead(a.Groups, g).Missed + 1)
		if core.KeyRead(a.Groups, g).Missed > 3 {
			core.KeyEntry(&a.Groups, g).Parent = overlay.NilAddress
		}
		if (core.KeyRead(a.Groups, g).Member || core.KeyRead(a.Groups, g).Forwarder) && !(core.KeyRead(a.Groups, g).Root) {
			if core.KeyRead(a.Groups, g).Parent != overlay.NilAddress {
				_ = ctx.Send(core.KeyRead(a.Groups, g).Parent, core.Put(&a.io.tx.JoinG, msgJoinG{Group: g, Joiner: ctx.Self(), Direct: true}), overlay.PriorityDefault)
			}
			_ = core.RouteMsg(ctx, g, core.Put(&a.io.tx.JoinG, msgJoinG{Group: g, Joiner: ctx.Self(), Direct: false}))
		} else {
			if core.KeyRead(a.Groups, g).Root {
				_ = core.RouteMsg(ctx, g, core.Put(&a.io.tx.JoinG, msgJoinG{Group: g, Joiner: ctx.Self(), Direct: false}))
			}
		}
		core.TallyTick(&core.KeyEntry(&a.Groups, g).Children, 3)
		if (!(core.KeyRead(a.Groups, g).Member) && !(core.KeyRead(a.Groups, g).Root)) && (int32(len(core.KeyRead(a.Groups, g).Children.Addrs)) == 0) {
			core.KeyEntry(&a.Groups, g).Forwarder = false
			if core.KeyRead(a.Groups, g).Parent != overlay.NilAddress {
				_ = ctx.Send(core.KeyRead(a.Groups, g).Parent, core.Put(&a.io.tx.LeaveG, msgLeaveG{Group: g}), overlay.PriorityDefault)
				core.KeyEntry(&a.Groups, g).Parent = overlay.NilAddress
			}
		}
	}
	ctx.TimerSched("refresh", time.Duration(a.RefreshMs)*time.Millisecond)
}

// transition11 implements: any API multicast [locking write;]
func (a *Agent) transition11(ctx *core.Context, call *core.APICall) {
	a.NextSeq = (a.NextSeq + 1)
	if !(core.KeyRead(a.Groups, call.Group).Root) {
		_ = core.RouteMsg(ctx, call.Group, core.Put(&a.io.tx.Mdata, msgMdata{Group: call.Group, Src: ctx.Self(), Seq: a.NextSeq, Typ: call.PayloadType, Payload: call.Payload}))
		return
	}
	core.MapPut(&a.Seen, (overlay.HashAddress(ctx.Self()) + a.NextSeq), ctx.Self())
	if int32(len(a.Seen)) > 8192 {
		clear(a.Seen)
		core.MapPut(&a.Seen, (overlay.HashAddress(ctx.Self()) + a.NextSeq), ctx.Self())
	}
	for _, c := range core.KeyRead(a.Groups, call.Group).Children.Addrs {
		_ = ctx.Send(c, core.Put(&a.io.tx.Mdata, msgMdata{Group: call.Group, Src: ctx.Self(), Seq: a.NextSeq, Typ: call.PayloadType, Payload: call.Payload}), overlay.PriorityDefault)
	}
	if core.KeyRead(a.Groups, call.Group).Member {
		ctx.Deliver(call.Payload, call.PayloadType, ctx.Self())
	}
}

// transition12 implements: any recv mdata [locking write;]
func (a *Agent) transition12(ctx *core.Context, ev *core.MsgEvent, m *msgMdata) {
	var g overlay.Key = m.Group
	_ = g
	var id overlay.Key = (overlay.HashAddress(m.Src) + m.Seq)
	_ = id
	if a.Seen[id] == m.Src {
		return
	}
	core.MapPut(&a.Seen, id, m.Src)
	if int32(len(a.Seen)) > 8192 {
		clear(a.Seen)
		core.MapPut(&a.Seen, id, m.Src)
	}
	for _, c := range core.KeyRead(a.Groups, g).Children.Addrs {
		_ = ctx.Send(c, core.Put(&a.io.tx.Mdata, msgMdata{Group: g, Src: m.Src, Seq: m.Seq, Typ: m.Typ, Payload: m.Payload}), overlay.PriorityDefault)
	}
	if core.KeyRead(a.Groups, g).Member {
		ctx.Deliver(m.Payload, m.Typ, m.Src)
	}
}

// transition13 implements: any API collect [locking write;]
func (a *Agent) transition13(ctx *core.Context, call *core.APICall) {
	if core.KeyRead(a.Groups, call.Group).Root {
		ctx.Deliver(call.Payload, call.PayloadType, ctx.Self())
	} else {
		if core.KeyRead(a.Groups, call.Group).Parent != overlay.NilAddress {
			_ = ctx.Send(core.KeyRead(a.Groups, call.Group).Parent, core.Put(&a.io.tx.Cdata, msgCdata{Group: call.Group, Src: ctx.Self(), Typ: call.PayloadType, Payload: call.Payload}), overlay.PriorityDefault)
		} else {
			_ = core.RouteMsg(ctx, call.Group, core.Put(&a.io.tx.Cdata, msgCdata{Group: call.Group, Src: ctx.Self(), Typ: call.PayloadType, Payload: call.Payload}))
		}
	}
}

// transition14 implements: any recv cdata [locking write;]
func (a *Agent) transition14(ctx *core.Context, ev *core.MsgEvent, m *msgCdata) {
	var g overlay.Key = m.Group
	_ = g
	ctx.UpcallExt(int(1001), m.Payload)
	if core.KeyRead(a.Groups, g).Root {
		ctx.Deliver(m.Payload, m.Typ, m.Src)
	} else {
		if core.KeyRead(a.Groups, g).Parent != overlay.NilAddress {
			_ = ctx.Send(core.KeyRead(a.Groups, g).Parent, core.Put(&a.io.tx.Cdata, msgCdata{Group: g, Src: m.Src, Typ: m.Typ, Payload: m.Payload}), overlay.PriorityDefault)
		} else {
			_ = core.RouteMsg(ctx, g, core.Put(&a.io.tx.Cdata, msgCdata{Group: g, Src: m.Src, Typ: m.Typ, Payload: m.Payload}))
		}
	}
}

// transition15 implements: any API anycast [locking write;]
func (a *Agent) transition15(ctx *core.Context, call *core.APICall) {
	_ = core.RouteMsg(ctx, call.Group, core.Put(&a.io.tx.Acast, msgAcast{Group: call.Group, Src: ctx.Self(), Typ: call.PayloadType, Payload: call.Payload}))
}

// transition16 implements: any recv acast [locking write;]
func (a *Agent) transition16(ctx *core.Context, ev *core.MsgEvent, m *msgAcast) {
	var g overlay.Key = m.Group
	_ = g
	if core.KeyRead(a.Groups, g).Member {
		ctx.Deliver(m.Payload, m.Typ, m.Src)
		return
	}
	m.Visited = core.ListAppend(m.Visited, ctx.Self())
	for _, c := range core.KeyRead(a.Groups, g).Children.Addrs {
		if !(slices.Contains(m.Visited, c)) {
			_ = ctx.Send(c, core.Put(&a.io.tx.Acast, msgAcast{Group: g, Src: m.Src, Typ: m.Typ, Payload: m.Payload, Visited: m.Visited}), overlay.PriorityDefault)
			return
		}
	}
	var p overlay.Address = core.KeyRead(a.Groups, g).Parent
	_ = p
	if (p != overlay.NilAddress) && !(slices.Contains(m.Visited, p)) {
		_ = ctx.Send(p, core.Put(&a.io.tx.Acast, msgAcast{Group: g, Src: m.Src, Typ: m.Typ, Payload: m.Payload, Visited: m.Visited}), overlay.PriorityDefault)
	}
}

// transition17 implements: any API route [locking write;]
func (a *Agent) transition17(ctx *core.Context, call *core.APICall) {
	_ = ctx.Route(call.Dest, call.Payload, call.PayloadType, call.Priority)
}

// transition18 implements: any API routeIP [locking write;]
func (a *Agent) transition18(ctx *core.Context, call *core.APICall) {
	_ = ctx.RouteIP(call.DestIP, call.Payload, call.PayloadType, call.Priority)
}
