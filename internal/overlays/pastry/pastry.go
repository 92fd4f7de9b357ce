// Code generated by "macedon gen" from specs/pastry.mac. DO NOT EDIT.

// Package pastry is the generated MACEDON agent for protocol "pastry".
package pastry

import (
	"slices"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

type msgJoinReq struct {
	Joiner overlay.Address
	Ttl    int32
}

func (m *msgJoinReq) MsgName() string { return "join_req" }

func (m *msgJoinReq) Encode(w *overlay.Writer) {
	w.Addr(m.Joiner)
	w.I32(m.Ttl)
}

func (m *msgJoinReq) Decode(r *overlay.Reader) error {
	m.Joiner = r.Addr()
	m.Ttl = r.I32()
	return r.Err()
}

type msgJoinReply struct {
	Leaves []overlay.Address
}

func (m *msgJoinReply) MsgName() string { return "join_reply" }

func (m *msgJoinReply) Encode(w *overlay.Writer) {
	w.Addrs(m.Leaves)
}

func (m *msgJoinReply) Decode(r *overlay.Reader) error {
	m.Leaves = r.AppendAddrs(m.Leaves[:0])
	return r.Err()
}

type msgAnnounce struct{}

func (m *msgAnnounce) MsgName() string { return "announce" }

func (m *msgAnnounce) Encode(*overlay.Writer) {}

func (m *msgAnnounce) Decode(r *overlay.Reader) error { return r.Err() }

type msgLsReq struct{}

func (m *msgLsReq) MsgName() string { return "ls_req" }

func (m *msgLsReq) Encode(*overlay.Writer) {}

func (m *msgLsReq) Decode(r *overlay.Reader) error { return r.Err() }

type msgLsResp struct {
	Leaves []overlay.Address
}

func (m *msgLsResp) MsgName() string { return "ls_resp" }

func (m *msgLsResp) Encode(w *overlay.Writer) {
	w.Addrs(m.Leaves)
}

func (m *msgLsResp) Decode(r *overlay.Reader) error {
	m.Leaves = r.AppendAddrs(m.Leaves[:0])
	return r.Err()
}

type msgData struct {
	Dest      overlay.Key
	Src       overlay.Address
	Typ       int32
	Ttl       int32
	WantCache int32
	Payload   []byte
}

func (m *msgData) MsgName() string { return "data" }

func (m *msgData) Encode(w *overlay.Writer) {
	w.Key(m.Dest)
	w.Addr(m.Src)
	w.I32(m.Typ)
	w.I32(m.Ttl)
	w.I32(m.WantCache)
	w.Bytes32(m.Payload)
}

func (m *msgData) Decode(r *overlay.Reader) error {
	m.Dest = r.Key()
	m.Src = r.Addr()
	m.Typ = r.I32()
	m.Ttl = r.I32()
	m.WantCache = r.I32()
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

type msgCacheInfo struct {
	Id overlay.Key
}

func (m *msgCacheInfo) MsgName() string { return "cache_info" }

func (m *msgCacheInfo) Encode(w *overlay.Writer) {
	w.Key(m.Id)
}

func (m *msgCacheInfo) Decode(r *overlay.Reader) error {
	m.Id = r.Key()
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
	JoinReq   msgJoinReq
	JoinReply msgJoinReply
	Announce  msgAnnounce
	LsReq     msgLsReq
	LsResp    msgLsResp
	Data      msgData
	DataIp    msgDataIp
	CacheInfo msgCacheInfo
}

// StateCopyOpaque keeps the scratch out of checkpoint images: between events
// it is garbage, and a copied slot would pin the payload it last saw.
func (*msgScratch) StateCopyOpaque() {}

// Agent is the generated protocol instance.
type Agent struct {
	Boot    overlay.Address
	Leafset []overlay.Address
	Rt      [128]overlay.Address
	Cache   map[overlay.Key]overlay.Address
	CacheMs int32

	io msgScratch // a named field: embedding would promote StateCopyOpaque to Agent
}

// New returns a factory for generated pastry agents.
func New() core.Factory {
	return func() core.Agent { return &Agent{} }
}

// ProtocolName implements the engine's naming hook.
func (a *Agent) ProtocolName() string { return "pastry" }

// DefinedByType makes the agent core.TypeDefined: Define reads no agent and
// no transition keeps ev.Msg, so one Def serves every instance.
func (*Agent) DefinedByType() {}

// SetParam sets the int auxiliary variable name to v, reporting whether
// the spec declares one: how a scenario's params reach the agent.
func (a *Agent) SetParam(name string, v int32) bool {
	switch name {
	case "cache_ms":
		a.CacheMs = v
	default:
		return false
	}
	return true
}

// Routing fills v with the routing state the spec's routing declaration
// names: how the correctness plane and the fuzzer read this agent.
func (a *Agent) Routing(inst *core.Instance, v *core.RoutingView) {
	v.Kind = core.RoutingLeafset
	v.Leafset = append([]overlay.Address(nil), a.Leafset...)
}

// Define declares the generated FSM.
func (*Agent) Define(d *core.Def) {
	d.States("joining", "joined")
	d.Addressing(core.HashAddressing)
	d.UDPTransport("CTRL")
	d.TCPTransport("DATA")
	d.Message("join_req", func() overlay.Message { return &msgJoinReq{} }, "CTRL")
	d.Message("join_reply", func() overlay.Message { return &msgJoinReply{} }, "CTRL")
	d.Message("announce", func() overlay.Message { return &msgAnnounce{} }, "CTRL")
	d.Message("ls_req", func() overlay.Message { return &msgLsReq{} }, "CTRL")
	d.Message("ls_resp", func() overlay.Message { return &msgLsResp{} }, "CTRL")
	d.Message("data", func() overlay.Message { return &msgData{} }, "DATA")
	d.Message("data_ip", func() overlay.Message { return &msgDataIp{} }, "DATA")
	d.Message("cache_info", func() overlay.Message { return &msgCacheInfo{} }, "CTRL")
	d.Timer("ls_exchange", 2000*time.Millisecond)
	d.Timer("rejoin", 2000*time.Millisecond)
	d.Timer("cache_flush", 0)
	d.Timer("ring_probe", 10000*time.Millisecond)
	d.NeighborList("leaves", 9, true)
	d.OnAPI(overlay.APIInit, core.In("init"), core.Write, core.APIOf((*Agent).transition0))
	d.OnTimer("rejoin", core.In("joining"), core.Write, core.TimerOf((*Agent).transition1))
	d.OnRecv("join_req", core.In("joined"), core.Write, core.RecvOf((*Agent).transition2))
	d.OnRecv("join_reply", core.In("joining"), core.Write, core.RecvOf((*Agent).transition3))
	d.OnRecv("announce", core.In("joined"), core.Write, core.RecvOf((*Agent).transition4))
	d.OnTimer("ring_probe", core.In("joined"), core.Write, core.TimerOf((*Agent).transition5))
	d.OnRecv("join_reply", core.In("joined"), core.Write, core.RecvOf((*Agent).transition6))
	d.OnTimer("ls_exchange", core.In("joined"), core.Write, core.TimerOf((*Agent).transition7))
	d.OnRecv("ls_req", core.Any, core.Write, core.RecvOf((*Agent).transition8))
	d.OnRecv("ls_resp", core.In("joined"), core.Write, core.RecvOf((*Agent).transition9))
	d.OnAPI(overlay.APIRoute, core.In("joined"), core.Write, core.APIOf((*Agent).transition10))
	d.OnRecv("data", core.In("joined"), core.Write, core.RecvOf((*Agent).transition11))
	d.OnRecv("cache_info", core.Any, core.Write, core.RecvOf((*Agent).transition12))
	d.OnTimer("cache_flush", core.Any, core.Write, core.TimerOf((*Agent).transition13))
	d.OnAPI(overlay.APIRouteIP, core.Any, core.Write, core.APIOf((*Agent).transition14))
	d.OnRecv("data_ip", core.Any, core.Write, core.RecvOf((*Agent).transition15))
	d.OnAPI(overlay.APIError, core.Any, core.Write, core.APIOf((*Agent).transition16))
}

// transition0 implements: (init) API init [locking write;]
func (a *Agent) transition0(ctx *core.Context, call *core.APICall) {
	a.Boot = call.Bootstrap
	if a.CacheMs > 0 {
		ctx.TimerSched("cache_flush", time.Duration(a.CacheMs)*time.Millisecond)
	}
	if (a.Boot == ctx.Self()) || (a.Boot == overlay.NilAddress) {
		ctx.StateChange("joined")
		ctx.TimerSched("ls_exchange", 2000*time.Millisecond)
	} else {
		ctx.StateChange("joining")
		_ = ctx.Send(a.Boot, core.Put(&a.io.tx.JoinReq, msgJoinReq{Joiner: ctx.Self(), Ttl: 32}), overlay.PriorityDefault)
		ctx.TimerSched("rejoin", 2000*time.Millisecond)
	}
}

// transition1 implements: (joining) timer rejoin [locking write;]
func (a *Agent) transition1(ctx *core.Context) {
	_ = ctx.Send(a.Boot, core.Put(&a.io.tx.JoinReq, msgJoinReq{Joiner: ctx.Self(), Ttl: 32}), overlay.PriorityDefault)
	ctx.TimerSched("rejoin", 2000*time.Millisecond)
}

// transition2 implements: (joined) recv join_req [locking write;]
func (a *Agent) transition2(ctx *core.Context, ev *core.MsgEvent, m *msgJoinReq) {
	var j overlay.Address
	_ = j
	j = m.Joiner
	if j == ctx.Self() {
		return
	}
	var best overlay.Address
	_ = best
	best = ctx.Self()
	for _, l := range a.Leafset {
		if (l != j) && (overlay.RingDiff(overlay.HashAddress(l), overlay.HashAddress(j)) < overlay.RingDiff(overlay.HashAddress(best), overlay.HashAddress(j))) {
			best = l
		}
	}
	if (best == ctx.Self()) || (m.Ttl == 0) {
		_ = ctx.Send(j, core.Put(&a.io.tx.JoinReply, msgJoinReply{Leaves: a.Leafset}), overlay.PriorityDefault)
		var row int32
		_ = row
		row = int32((ctx.SelfKey()).SharedPrefix(overlay.HashAddress(j), 4))
		if (row < 8) && (core.ListGet(a.Rt[:], ((row*16)+int32((overlay.HashAddress(j)).Digit(int(row), 4)))) == overlay.NilAddress) {
			core.TablePut(a.Rt[:], ((row * 16) + int32((overlay.HashAddress(j)).Digit(int(row), 4))), j)
		}
		a.Leafset = core.RingInsert(ctx.SelfKey(), ctx.Self(), a.Leafset, j, 4)
		ctx.Neighbors("leaves").Assign(a.Leafset, ctx.Self())
		return
	}
	_ = ctx.Send(best, core.Put(&a.io.tx.JoinReq, msgJoinReq{Joiner: j, Ttl: (m.Ttl - 1)}), overlay.PriorityDefault)
}

// transition3 implements: (joining) recv join_reply [locking write;]
func (a *Agent) transition3(ctx *core.Context, ev *core.MsgEvent, m *msgJoinReply) {
	ctx.StateChange("joined")
	ctx.TimerCancel("rejoin")
	ctx.TimerSched("ls_exchange", 2000*time.Millisecond)
	ctx.TimerSched("ring_probe", 10000*time.Millisecond)
	var row int32
	_ = row
	row = int32((ctx.SelfKey()).SharedPrefix(overlay.HashAddress(ev.From), 4))
	if (row < 8) && (core.ListGet(a.Rt[:], ((row*16)+int32((overlay.HashAddress(ev.From)).Digit(int(row), 4)))) == overlay.NilAddress) {
		core.TablePut(a.Rt[:], ((row * 16) + int32((overlay.HashAddress(ev.From)).Digit(int(row), 4))), ev.From)
	}
	a.Leafset = core.RingInsert(ctx.SelfKey(), ctx.Self(), a.Leafset, ev.From, 4)
	for _, l := range m.Leaves {
		if (l != ctx.Self()) && (l != overlay.NilAddress) {
			row = int32((ctx.SelfKey()).SharedPrefix(overlay.HashAddress(l), 4))
			if (row < 8) && (core.ListGet(a.Rt[:], ((row*16)+int32((overlay.HashAddress(l)).Digit(int(row), 4)))) == overlay.NilAddress) {
				core.TablePut(a.Rt[:], ((row * 16) + int32((overlay.HashAddress(l)).Digit(int(row), 4))), l)
			}
			a.Leafset = core.RingInsert(ctx.SelfKey(), ctx.Self(), a.Leafset, l, 4)
		}
	}
	ctx.Neighbors("leaves").Assign(a.Leafset, ctx.Self())
	for _, l := range a.Leafset {
		_ = ctx.Send(l, core.Put(&a.io.tx.Announce, msgAnnounce{}), overlay.PriorityDefault)
	}
	for _, e := range a.Rt[:] {
		if (e != overlay.NilAddress) && !(slices.Contains(a.Leafset, e)) {
			_ = ctx.Send(e, core.Put(&a.io.tx.Announce, msgAnnounce{}), overlay.PriorityDefault)
		}
	}
}

// transition4 implements: (joined) recv announce [locking write;]
func (a *Agent) transition4(ctx *core.Context, ev *core.MsgEvent, m *msgAnnounce) {
	var row int32
	_ = row
	row = int32((ctx.SelfKey()).SharedPrefix(overlay.HashAddress(ev.From), 4))
	if (row < 8) && (core.ListGet(a.Rt[:], ((row*16)+int32((overlay.HashAddress(ev.From)).Digit(int(row), 4)))) == overlay.NilAddress) {
		core.TablePut(a.Rt[:], ((row * 16) + int32((overlay.HashAddress(ev.From)).Digit(int(row), 4))), ev.From)
	}
	a.Leafset = core.RingInsert(ctx.SelfKey(), ctx.Self(), a.Leafset, ev.From, 4)
	ctx.Neighbors("leaves").Assign(a.Leafset, ctx.Self())
}

// transition5 implements: (joined) timer ring_probe [locking write;]
func (a *Agent) transition5(ctx *core.Context) {
	ctx.TimerSched("ring_probe", 10000*time.Millisecond)
	if a.Boot != ctx.Self() {
		_ = ctx.Send(a.Boot, core.Put(&a.io.tx.JoinReq, msgJoinReq{Joiner: ctx.Self(), Ttl: 32}), overlay.PriorityDefault)
	}
}

// transition6 implements: (joined) recv join_reply [locking write;]
func (a *Agent) transition6(ctx *core.Context, ev *core.MsgEvent, m *msgJoinReply) {
	var row int32
	_ = row
	row = int32((ctx.SelfKey()).SharedPrefix(overlay.HashAddress(ev.From), 4))
	if (row < 8) && (core.ListGet(a.Rt[:], ((row*16)+int32((overlay.HashAddress(ev.From)).Digit(int(row), 4)))) == overlay.NilAddress) {
		core.TablePut(a.Rt[:], ((row * 16) + int32((overlay.HashAddress(ev.From)).Digit(int(row), 4))), ev.From)
	}
	a.Leafset = core.RingInsert(ctx.SelfKey(), ctx.Self(), a.Leafset, ev.From, 4)
	for _, l := range m.Leaves {
		if (l != ctx.Self()) && (l != overlay.NilAddress) {
			row = int32((ctx.SelfKey()).SharedPrefix(overlay.HashAddress(l), 4))
			if (row < 8) && (core.ListGet(a.Rt[:], ((row*16)+int32((overlay.HashAddress(l)).Digit(int(row), 4)))) == overlay.NilAddress) {
				core.TablePut(a.Rt[:], ((row * 16) + int32((overlay.HashAddress(l)).Digit(int(row), 4))), l)
			}
			a.Leafset = core.RingInsert(ctx.SelfKey(), ctx.Self(), a.Leafset, l, 4)
		}
	}
	ctx.Neighbors("leaves").Assign(a.Leafset, ctx.Self())
}

// transition7 implements: (joined) timer ls_exchange [locking write;]
func (a *Agent) transition7(ctx *core.Context) {
	ctx.TimerSched("ls_exchange", 2000*time.Millisecond)
	if int32(len(a.Leafset)) == 0 {
		if a.Boot != ctx.Self() {
			_ = ctx.Send(a.Boot, core.Put(&a.io.tx.LsReq, msgLsReq{}), overlay.PriorityDefault)
		}
		return
	}
	_ = ctx.Send(core.ListRandom(ctx, a.Leafset), core.Put(&a.io.tx.LsReq, msgLsReq{}), overlay.PriorityDefault)
}

// transition8 implements: any recv ls_req [locking write;]
func (a *Agent) transition8(ctx *core.Context, ev *core.MsgEvent, m *msgLsReq) {
	var row int32
	_ = row
	row = int32((ctx.SelfKey()).SharedPrefix(overlay.HashAddress(ev.From), 4))
	if (row < 8) && (core.ListGet(a.Rt[:], ((row*16)+int32((overlay.HashAddress(ev.From)).Digit(int(row), 4)))) == overlay.NilAddress) {
		core.TablePut(a.Rt[:], ((row * 16) + int32((overlay.HashAddress(ev.From)).Digit(int(row), 4))), ev.From)
	}
	a.Leafset = core.RingInsert(ctx.SelfKey(), ctx.Self(), a.Leafset, ev.From, 4)
	ctx.Neighbors("leaves").Assign(a.Leafset, ctx.Self())
	_ = ctx.Send(ev.From, core.Put(&a.io.tx.LsResp, msgLsResp{Leaves: a.Leafset}), overlay.PriorityDefault)
}

// transition9 implements: (joined) recv ls_resp [locking write;]
func (a *Agent) transition9(ctx *core.Context, ev *core.MsgEvent, m *msgLsResp) {
	var row int32
	_ = row
	row = int32((ctx.SelfKey()).SharedPrefix(overlay.HashAddress(ev.From), 4))
	if (row < 8) && (core.ListGet(a.Rt[:], ((row*16)+int32((overlay.HashAddress(ev.From)).Digit(int(row), 4)))) == overlay.NilAddress) {
		core.TablePut(a.Rt[:], ((row * 16) + int32((overlay.HashAddress(ev.From)).Digit(int(row), 4))), ev.From)
	}
	a.Leafset = core.RingInsert(ctx.SelfKey(), ctx.Self(), a.Leafset, ev.From, 4)
	for _, l := range m.Leaves {
		if (l != ctx.Self()) && (l != overlay.NilAddress) {
			row = int32((ctx.SelfKey()).SharedPrefix(overlay.HashAddress(l), 4))
			if (row < 8) && (core.ListGet(a.Rt[:], ((row*16)+int32((overlay.HashAddress(l)).Digit(int(row), 4)))) == overlay.NilAddress) {
				core.TablePut(a.Rt[:], ((row * 16) + int32((overlay.HashAddress(l)).Digit(int(row), 4))), l)
			}
			a.Leafset = core.RingInsert(ctx.SelfKey(), ctx.Self(), a.Leafset, l, 4)
		}
	}
	ctx.Neighbors("leaves").Assign(a.Leafset, ctx.Self())
}

// transition10 implements: (joined) API route [locking write;]
func (a *Agent) transition10(ctx *core.Context, call *core.APICall) {
	if a.Cache[call.Dest] != overlay.NilAddress {
		_ = ctx.Send(a.Cache[call.Dest], core.Put(&a.io.tx.Data, msgData{Dest: call.Dest, Src: ctx.Self(), Typ: call.PayloadType, Ttl: 32, WantCache: 0, Payload: call.Payload}), overlay.PriorityDefault)
		return
	}
	var best overlay.Address
	_ = best
	best = ctx.Self()
	for _, l := range a.Leafset {
		if overlay.RingDiff(overlay.HashAddress(l), call.Dest) < overlay.RingDiff(overlay.HashAddress(best), call.Dest) {
			best = l
		}
	}
	for _, e := range a.Rt[:] {
		if (e != overlay.NilAddress) && (overlay.RingDiff(overlay.HashAddress(e), call.Dest) < overlay.RingDiff(overlay.HashAddress(best), call.Dest)) {
			best = e
		}
	}
	if best == ctx.Self() {
		ctx.Deliver(call.Payload, call.PayloadType, ctx.Self())
		return
	}
	var row int32
	_ = row
	row = int32((ctx.SelfKey()).SharedPrefix(call.Dest, 4))
	var ph overlay.Address
	_ = ph
	ph = core.ListGet(a.Rt[:], ((row * 16) + int32((call.Dest).Digit(int(row), 4))))
	if (ph != overlay.NilAddress) && (overlay.RingDiff(overlay.HashAddress(ph), call.Dest) < overlay.RingDiff(ctx.SelfKey(), call.Dest)) {
		fwOk, _, fwPayload := ctx.Forward(call.Payload, call.PayloadType, ph, overlay.HashAddress(ph))
		if !fwOk {
			return
		}
		_ = fwPayload
		_ = ctx.Send(ph, core.Put(&a.io.tx.Data, msgData{Dest: call.Dest, Src: ctx.Self(), Typ: call.PayloadType, Ttl: 32, WantCache: 1, Payload: fwPayload}), overlay.PriorityDefault)
		return
	}
	fwOk, _, fwPayload2 := ctx.Forward(call.Payload, call.PayloadType, best, overlay.HashAddress(best))
	if !fwOk {
		return
	}
	_ = fwPayload2
	_ = ctx.Send(best, core.Put(&a.io.tx.Data, msgData{Dest: call.Dest, Src: ctx.Self(), Typ: call.PayloadType, Ttl: 32, WantCache: 1, Payload: fwPayload2}), overlay.PriorityDefault)
}

// transition11 implements: (joined) recv data [locking write;]
func (a *Agent) transition11(ctx *core.Context, ev *core.MsgEvent, m *msgData) {
	var best overlay.Address
	_ = best
	best = ctx.Self()
	for _, l := range a.Leafset {
		if overlay.RingDiff(overlay.HashAddress(l), m.Dest) < overlay.RingDiff(overlay.HashAddress(best), m.Dest) {
			best = l
		}
	}
	for _, e := range a.Rt[:] {
		if (e != overlay.NilAddress) && (overlay.RingDiff(overlay.HashAddress(e), m.Dest) < overlay.RingDiff(overlay.HashAddress(best), m.Dest)) {
			best = e
		}
	}
	if best == ctx.Self() {
		if (m.WantCache == 1) && (m.Src != ctx.Self()) {
			_ = ctx.Send(m.Src, core.Put(&a.io.tx.CacheInfo, msgCacheInfo{Id: m.Dest}), overlay.PriorityDefault)
		}
		ctx.Deliver(m.Payload, m.Typ, m.Src)
		return
	}
	if m.Ttl == 0 {
		return
	}
	var row int32
	_ = row
	row = int32((ctx.SelfKey()).SharedPrefix(m.Dest, 4))
	var ph overlay.Address
	_ = ph
	ph = core.ListGet(a.Rt[:], ((row * 16) + int32((m.Dest).Digit(int(row), 4))))
	if (ph != overlay.NilAddress) && (overlay.RingDiff(overlay.HashAddress(ph), m.Dest) < overlay.RingDiff(ctx.SelfKey(), m.Dest)) {
		fwOk, _, fwPayload := ctx.Forward(m.Payload, m.Typ, ph, overlay.HashAddress(ph))
		if !fwOk {
			return
		}
		_ = fwPayload
		_ = ctx.Send(ph, core.Put(&a.io.tx.Data, msgData{Dest: m.Dest, Src: m.Src, Typ: m.Typ, Ttl: (m.Ttl - 1), WantCache: m.WantCache, Payload: fwPayload}), overlay.PriorityDefault)
		return
	}
	fwOk, _, fwPayload2 := ctx.Forward(m.Payload, m.Typ, best, overlay.HashAddress(best))
	if !fwOk {
		return
	}
	_ = fwPayload2
	_ = ctx.Send(best, core.Put(&a.io.tx.Data, msgData{Dest: m.Dest, Src: m.Src, Typ: m.Typ, Ttl: (m.Ttl - 1), WantCache: m.WantCache, Payload: fwPayload2}), overlay.PriorityDefault)
}

// transition12 implements: any recv cache_info [locking write;]
func (a *Agent) transition12(ctx *core.Context, ev *core.MsgEvent, m *msgCacheInfo) {
	core.MapPut(&a.Cache, m.Id, ev.From)
}

// transition13 implements: any timer cache_flush [locking write;]
func (a *Agent) transition13(ctx *core.Context) {
	clear(a.Cache)
	ctx.TimerSched("cache_flush", time.Duration(a.CacheMs)*time.Millisecond)
}

// transition14 implements: any API routeIP [locking write;]
func (a *Agent) transition14(ctx *core.Context, call *core.APICall) {
	if call.DestIP == ctx.Self() {
		ctx.Deliver(call.Payload, call.PayloadType, ctx.Self())
	} else {
		_ = ctx.Send(call.DestIP, core.Put(&a.io.tx.DataIp, msgDataIp{Src: ctx.Self(), Typ: call.PayloadType, Payload: call.Payload}), overlay.PriorityDefault)
	}
}

// transition15 implements: any recv data_ip [locking write;]
func (a *Agent) transition15(ctx *core.Context, ev *core.MsgEvent, m *msgDataIp) {
	ctx.Deliver(m.Payload, m.Typ, m.Src)
}

// transition16 implements: any API error [locking write;]
func (a *Agent) transition16(ctx *core.Context, call *core.APICall) {
	a.Leafset = core.ListRemove(a.Leafset, call.Failed)
	ctx.Neighbors("leaves").Assign(a.Leafset, ctx.Self())
	core.TableRemove(a.Rt[:], call.Failed)
	core.MapRemoveValue(a.Cache, call.Failed)
}
