// Code generated by "macedon gen" from specs/chord.mac. DO NOT EDIT.

// Package chord is the generated MACEDON agent for protocol "chord".
package chord

import (
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

type msgFindReq struct {
	Target  overlay.Key
	Origin  overlay.Address
	Purpose int32
	Finger  int32
	Ttl     int32
}

func (m *msgFindReq) MsgName() string { return "find_req" }

func (m *msgFindReq) Encode(w *overlay.Writer) {
	w.Key(m.Target)
	w.Addr(m.Origin)
	w.I32(m.Purpose)
	w.I32(m.Finger)
	w.I32(m.Ttl)
}

func (m *msgFindReq) Decode(r *overlay.Reader) error {
	m.Target = r.Key()
	m.Origin = r.Addr()
	m.Purpose = r.I32()
	m.Finger = r.I32()
	m.Ttl = r.I32()
	return r.Err()
}

type msgFindResp struct {
	Target  overlay.Key
	Owner   overlay.Address
	Purpose int32
	Finger  int32
}

func (m *msgFindResp) MsgName() string { return "find_resp" }

func (m *msgFindResp) Encode(w *overlay.Writer) {
	w.Key(m.Target)
	w.Addr(m.Owner)
	w.I32(m.Purpose)
	w.I32(m.Finger)
}

func (m *msgFindResp) Decode(r *overlay.Reader) error {
	m.Target = r.Key()
	m.Owner = r.Addr()
	m.Purpose = r.I32()
	m.Finger = r.I32()
	return r.Err()
}

type msgGetPredReq struct{}

func (m *msgGetPredReq) MsgName() string { return "get_pred_req" }

func (m *msgGetPredReq) Encode(*overlay.Writer) {}

func (m *msgGetPredReq) Decode(r *overlay.Reader) error { return r.Err() }

type msgGetPredResp struct {
	Pred  overlay.Address
	Succs []overlay.Address
}

func (m *msgGetPredResp) MsgName() string { return "get_pred_resp" }

func (m *msgGetPredResp) Encode(w *overlay.Writer) {
	w.Addr(m.Pred)
	w.Addrs(m.Succs)
}

func (m *msgGetPredResp) Decode(r *overlay.Reader) error {
	m.Pred = r.Addr()
	m.Succs = r.AppendAddrs(m.Succs[:0])
	return r.Err()
}

type msgNotify struct{}

func (m *msgNotify) MsgName() string { return "notify" }

func (m *msgNotify) Encode(*overlay.Writer) {}

func (m *msgNotify) Decode(r *overlay.Reader) error { return r.Err() }

type msgData struct {
	Dest    overlay.Key
	Src     overlay.Address
	Typ     int32
	Ttl     int32
	Payload []byte
}

func (m *msgData) MsgName() string { return "data" }

func (m *msgData) Encode(w *overlay.Writer) {
	w.Key(m.Dest)
	w.Addr(m.Src)
	w.I32(m.Typ)
	w.I32(m.Ttl)
	w.Bytes32(m.Payload)
}

func (m *msgData) Decode(r *overlay.Reader) error {
	m.Dest = r.Key()
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
	FindReq     msgFindReq
	FindResp    msgFindResp
	GetPredReq  msgGetPredReq
	GetPredResp msgGetPredResp
	Notify      msgNotify
	Data        msgData
	DataIp      msgDataIp
}

// StateCopyOpaque keeps the scratch out of checkpoint images: between events
// it is garbage, and a copied slot would pin the payload it last saw.
func (*msgScratch) StateCopyOpaque() {}

// Agent is the generated protocol instance.
type Agent struct {
	Boot        overlay.Address
	Succs       []overlay.Address
	Fingers     [32]overlay.Address
	NextFinger  int32
	FixMs       int32
	FixAdaptive int32

	io msgScratch // a named field: embedding would promote StateCopyOpaque to Agent
}

// New returns a factory for generated chord agents.
func New() core.Factory {
	return func() core.Agent { return &Agent{} }
}

// ProtocolName implements the engine's naming hook.
func (a *Agent) ProtocolName() string { return "chord" }

// DefinedByType makes the agent core.TypeDefined: Define reads no agent and
// no transition keeps ev.Msg, so one Def serves every instance.
func (*Agent) DefinedByType() {}

// SetParam sets the int auxiliary variable name to v, reporting whether
// the spec declares one: how a scenario's params reach the agent.
func (a *Agent) SetParam(name string, v int32) bool {
	switch name {
	case "next_finger":
		a.NextFinger = v
	case "fix_ms":
		a.FixMs = v
	case "fix_adaptive":
		a.FixAdaptive = v
	default:
		return false
	}
	return true
}

// Routing fills v with the routing state the spec's routing declaration
// names: how the correctness plane and the fuzzer read this agent.
func (a *Agent) Routing(inst *core.Instance, v *core.RoutingView) {
	v.Kind = core.RoutingRing
	v.Succs = append([]overlay.Address(nil), a.Succs...)
	v.Pred = core.ListGet(inst.NeighborsSnapshot("pred"), 0)
	v.Fingers = append([]overlay.Address(nil), a.Fingers[:]...)
}

// Define declares the generated FSM.
func (*Agent) Define(d *core.Def) {
	d.States("joining", "joined")
	d.Addressing(core.HashAddressing)
	d.UDPTransport("CTRL")
	d.TCPTransport("DATA")
	d.Message("find_req", func() overlay.Message { return &msgFindReq{} }, "CTRL")
	d.Message("find_resp", func() overlay.Message { return &msgFindResp{} }, "CTRL")
	d.Message("get_pred_req", func() overlay.Message { return &msgGetPredReq{} }, "CTRL")
	d.Message("get_pred_resp", func() overlay.Message { return &msgGetPredResp{} }, "CTRL")
	d.Message("notify", func() overlay.Message { return &msgNotify{} }, "CTRL")
	d.Message("data", func() overlay.Message { return &msgData{} }, "DATA")
	d.Message("data_ip", func() overlay.Message { return &msgDataIp{} }, "DATA")
	d.Timer("stabilize", 1000*time.Millisecond)
	d.Timer("fix_fingers", 1000*time.Millisecond)
	d.Timer("rejoin", 2000*time.Millisecond)
	d.Timer("ring_probe", 10000*time.Millisecond)
	d.NeighborList("succ_nbrs", 8, true)
	d.NeighborList("pred", 1, true)
	d.OnAPI(overlay.APIInit, core.In("init"), core.Write, core.APIOf((*Agent).transition0))
	d.OnTimer("rejoin", core.In("joining"), core.Write, core.TimerOf((*Agent).transition1))
	d.OnRecv("find_req", core.In("joined"), core.Write, core.RecvOf((*Agent).transition2))
	d.OnRecv("find_resp", core.In("joining"), core.Write, core.RecvOf((*Agent).transition3))
	d.OnRecv("find_resp", core.In("joined"), core.Write, core.RecvOf((*Agent).transition4))
	d.OnTimer("ring_probe", core.In("joined"), core.Write, core.TimerOf((*Agent).transition5))
	d.OnTimer("stabilize", core.In("joined"), core.Write, core.TimerOf((*Agent).transition6))
	d.OnRecv("get_pred_req", core.Any, core.Write, core.RecvOf((*Agent).transition7))
	d.OnRecv("get_pred_resp", core.In("joined"), core.Write, core.RecvOf((*Agent).transition8))
	d.OnRecv("notify", core.Any, core.Write, core.RecvOf((*Agent).transition9))
	d.OnTimer("fix_fingers", core.In("joined"), core.Write, core.TimerOf((*Agent).transition10))
	d.OnAPI(overlay.APIRoute, core.In("joined"), core.Write, core.APIOf((*Agent).transition11))
	d.OnRecv("data", core.In("joined"), core.Write, core.RecvOf((*Agent).transition12))
	d.OnAPI(overlay.APIRouteIP, core.Any, core.Write, core.APIOf((*Agent).transition13))
	d.OnRecv("data_ip", core.Any, core.Write, core.RecvOf((*Agent).transition14))
	d.OnAPI(overlay.APIError, core.Any, core.Write, core.APIOf((*Agent).transition15))
}

// transition0 implements: (init) API init [locking write;]
func (a *Agent) transition0(ctx *core.Context, call *core.APICall) {
	a.Boot = call.Bootstrap
	if a.FixMs == 0 {
		a.FixMs = 1000
	}
	if (a.Boot == ctx.Self()) || (a.Boot == overlay.NilAddress) {
		ctx.StateChange("joined")
		ctx.TimerSched("stabilize", 1000*time.Millisecond)
		ctx.TimerSched("fix_fingers", time.Duration(a.FixMs)*time.Millisecond)
		ctx.TimerSched("ring_probe", 10000*time.Millisecond)
	} else {
		ctx.StateChange("joining")
		_ = ctx.Send(a.Boot, core.Put(&a.io.tx.FindReq, msgFindReq{Target: ctx.SelfKey(), Origin: ctx.Self(), Purpose: 0, Finger: 0, Ttl: 64}), overlay.PriorityDefault)
		ctx.TimerSched("rejoin", 2000*time.Millisecond)
	}
}

// transition1 implements: (joining) timer rejoin [locking write;]
func (a *Agent) transition1(ctx *core.Context) {
	_ = ctx.Send(a.Boot, core.Put(&a.io.tx.FindReq, msgFindReq{Target: ctx.SelfKey(), Origin: ctx.Self(), Purpose: 0, Finger: 0, Ttl: 64}), overlay.PriorityDefault)
	ctx.TimerSched("rejoin", 2000*time.Millisecond)
}

// transition2 implements: (joined) recv find_req [locking write;]
func (a *Agent) transition2(ctx *core.Context, ev *core.MsgEvent, m *msgFindReq) {
	if (int32(ctx.Neighbors("pred").Size()) > 0) && (m.Target).BetweenIncl(overlay.HashAddress(core.NeighborFirst(ctx, "pred")), ctx.SelfKey()) {
		_ = ctx.Send(m.Origin, core.Put(&a.io.tx.FindResp, msgFindResp{Target: m.Target, Owner: ctx.Self(), Purpose: m.Purpose, Finger: m.Finger}), overlay.PriorityDefault)
		return
	}
	var succ overlay.Address
	_ = succ
	succ = core.ListGet(a.Succs, 0)
	if (succ == overlay.NilAddress) || (succ == ctx.Self()) {
		_ = ctx.Send(m.Origin, core.Put(&a.io.tx.FindResp, msgFindResp{Target: m.Target, Owner: ctx.Self(), Purpose: m.Purpose, Finger: m.Finger}), overlay.PriorityDefault)
		return
	}
	if (m.Target).BetweenIncl(ctx.SelfKey(), overlay.HashAddress(succ)) {
		_ = ctx.Send(m.Origin, core.Put(&a.io.tx.FindResp, msgFindResp{Target: m.Target, Owner: succ, Purpose: m.Purpose, Finger: m.Finger}), overlay.PriorityDefault)
		return
	}
	if m.Ttl == 0 {
		return
	}
	var best overlay.Address
	_ = best
	best = succ
	for _, f := range a.Fingers[:] {
		if (((f != overlay.NilAddress) && (f != ctx.Self())) && (overlay.HashAddress(f)).Between(ctx.SelfKey(), m.Target)) && ((overlay.HashAddress(f)).Distance(m.Target) < (overlay.HashAddress(best)).Distance(m.Target)) {
			best = f
		}
	}
	for _, s := range a.Succs {
		if ((s != ctx.Self()) && (overlay.HashAddress(s)).Between(ctx.SelfKey(), m.Target)) && ((overlay.HashAddress(s)).Distance(m.Target) < (overlay.HashAddress(best)).Distance(m.Target)) {
			best = s
		}
	}
	if best != ctx.Self() {
		_ = ctx.Send(best, core.Put(&a.io.tx.FindReq, msgFindReq{Target: m.Target, Origin: m.Origin, Purpose: m.Purpose, Finger: m.Finger, Ttl: (m.Ttl - 1)}), overlay.PriorityDefault)
	}
}

// transition3 implements: (joining) recv find_resp [locking write;]
func (a *Agent) transition3(ctx *core.Context, ev *core.MsgEvent, m *msgFindResp) {
	if ((m.Purpose != 0) || (m.Owner == ctx.Self())) || (m.Owner == overlay.NilAddress) {
		return
	}
	a.Succs = core.ListPrepend(a.Succs, m.Owner)
	a.Succs = core.ListTrunc(a.Succs, 4)
	ctx.Neighbors("succ_nbrs").Assign(a.Succs, ctx.Self())
	ctx.TimerCancel("rejoin")
	ctx.StateChange("joined")
	ctx.TimerSched("stabilize", 1000*time.Millisecond)
	ctx.TimerSched("fix_fingers", time.Duration(a.FixMs)*time.Millisecond)
	ctx.TimerSched("ring_probe", 10000*time.Millisecond)
	_ = ctx.Send(m.Owner, core.Put(&a.io.tx.Notify, msgNotify{}), overlay.PriorityDefault)
}

// transition4 implements: (joined) recv find_resp [locking write;]
func (a *Agent) transition4(ctx *core.Context, ev *core.MsgEvent, m *msgFindResp) {
	if ((m.Purpose == 1) && (m.Finger >= 0)) && (m.Finger < 32) {
		if a.FixAdaptive != 0 {
			if core.ListGet(a.Fingers[:], m.Finger) == m.Owner {
				a.FixMs = (a.FixMs * 2)
			} else {
				a.FixMs = (a.FixMs / 2)
			}
			if a.FixMs < 1000 {
				a.FixMs = 1000
			}
			if a.FixMs > 32000 {
				a.FixMs = 32000
			}
		}
		core.TablePut(a.Fingers[:], m.Finger, m.Owner)
		return
	}
	if ((m.Purpose != 0) || (m.Owner == ctx.Self())) || (m.Owner == overlay.NilAddress) {
		return
	}
	var succ overlay.Address
	_ = succ
	succ = core.ListGet(a.Succs, 0)
	if ((succ == overlay.NilAddress) || (succ == ctx.Self())) || (overlay.HashAddress(m.Owner)).Between(ctx.SelfKey(), overlay.HashAddress(succ)) {
		a.Succs = core.ListPrepend(a.Succs, m.Owner)
		a.Succs = core.ListTrunc(a.Succs, 4)
		ctx.Neighbors("succ_nbrs").Assign(a.Succs, ctx.Self())
		_ = ctx.Send(m.Owner, core.Put(&a.io.tx.Notify, msgNotify{}), overlay.PriorityDefault)
	}
}

// transition5 implements: (joined) timer ring_probe [locking write;]
func (a *Agent) transition5(ctx *core.Context) {
	ctx.TimerSched("ring_probe", 10000*time.Millisecond)
	if a.Boot != ctx.Self() {
		_ = ctx.Send(a.Boot, core.Put(&a.io.tx.FindReq, msgFindReq{Target: ctx.SelfKey(), Origin: ctx.Self(), Purpose: 0, Finger: 0, Ttl: 64}), overlay.PriorityDefault)
	}
}

// transition6 implements: (joined) timer stabilize [locking write;]
func (a *Agent) transition6(ctx *core.Context) {
	ctx.TimerSched("stabilize", 1000*time.Millisecond)
	if int32(len(a.Succs)) == 0 {
		if int32(ctx.Neighbors("pred").Size()) > 0 {
			a.Succs = core.ListAppend(a.Succs, core.NeighborFirst(ctx, "pred"))
			ctx.Neighbors("succ_nbrs").Assign(a.Succs, ctx.Self())
		}
		return
	}
	_ = ctx.Send(core.ListGet(a.Succs, 0), core.Put(&a.io.tx.GetPredReq, msgGetPredReq{}), overlay.PriorityDefault)
}

// transition7 implements: any recv get_pred_req [locking write;]
func (a *Agent) transition7(ctx *core.Context, ev *core.MsgEvent, m *msgGetPredReq) {
	_ = ctx.Send(ev.From, core.Put(&a.io.tx.GetPredResp, msgGetPredResp{Pred: core.NeighborFirst(ctx, "pred"), Succs: a.Succs}), overlay.PriorityDefault)
}

// transition8 implements: (joined) recv get_pred_resp [locking write;]
func (a *Agent) transition8(ctx *core.Context, ev *core.MsgEvent, m *msgGetPredResp) {
	var succ overlay.Address
	_ = succ
	succ = core.ListGet(a.Succs, 0)
	if succ == overlay.NilAddress {
		return
	}
	var p overlay.Address
	_ = p
	p = m.Pred
	if ((p != overlay.NilAddress) && (p != ctx.Self())) && (overlay.HashAddress(p)).Between(ctx.SelfKey(), overlay.HashAddress(succ)) {
		succ = p
	}
	a.Succs = a.Succs[:0]
	a.Succs = core.ListAppend(a.Succs, succ)
	for _, s := range m.Succs {
		if (s != ctx.Self()) && (s != overlay.NilAddress) {
			a.Succs = core.ListAppend(a.Succs, s)
		}
	}
	a.Succs = core.ListTrunc(a.Succs, 4)
	ctx.Neighbors("succ_nbrs").Assign(a.Succs, ctx.Self())
	_ = ctx.Send(core.ListGet(a.Succs, 0), core.Put(&a.io.tx.Notify, msgNotify{}), overlay.PriorityDefault)
}

// transition9 implements: any recv notify [locking write;]
func (a *Agent) transition9(ctx *core.Context, ev *core.MsgEvent, m *msgNotify) {
	if ev.From == ctx.Self() {
		return
	}
	if (int32(ctx.Neighbors("pred").Size()) == 0) || (overlay.HashAddress(ev.From)).Between(overlay.HashAddress(core.NeighborFirst(ctx, "pred")), ctx.SelfKey()) {
		ctx.Neighbors("pred").Clear()
		ctx.Neighbors("pred").Add(ev.From)
		if int32(len(a.Succs)) == 0 {
			a.Succs = core.ListAppend(a.Succs, ev.From)
			ctx.Neighbors("succ_nbrs").Assign(a.Succs, ctx.Self())
		}
	}
}

// transition10 implements: (joined) timer fix_fingers [locking write;]
func (a *Agent) transition10(ctx *core.Context) {
	ctx.TimerSched("fix_fingers", time.Duration(a.FixMs)*time.Millisecond)
	var succ overlay.Address
	_ = succ
	succ = core.ListGet(a.Succs, 0)
	if (succ == overlay.NilAddress) || (succ == ctx.Self()) {
		return
	}
	if a.FixAdaptive != 0 {
		a.NextFinger = int32(ctx.Rand().Intn(32))
	} else {
		a.NextFinger = (a.NextFinger + 1)
		if a.NextFinger >= 32 {
			a.NextFinger = 0
		}
	}
	var target overlay.Key
	_ = target
	target = overlay.KeyStep(ctx.SelfKey(), int(a.NextFinger))
	if (int32(ctx.Neighbors("pred").Size()) > 0) && (target).BetweenIncl(overlay.HashAddress(core.NeighborFirst(ctx, "pred")), ctx.SelfKey()) {
		core.TablePut(a.Fingers[:], a.NextFinger, ctx.Self())
		return
	}
	if (target).BetweenIncl(ctx.SelfKey(), overlay.HashAddress(succ)) {
		if a.FixAdaptive != 0 {
			if core.ListGet(a.Fingers[:], a.NextFinger) == succ {
				a.FixMs = (a.FixMs * 2)
			} else {
				a.FixMs = (a.FixMs / 2)
			}
			if a.FixMs < 1000 {
				a.FixMs = 1000
			}
			if a.FixMs > 32000 {
				a.FixMs = 32000
			}
		}
		core.TablePut(a.Fingers[:], a.NextFinger, succ)
		return
	}
	var best overlay.Address
	_ = best
	best = succ
	for _, f := range a.Fingers[:] {
		if (((f != overlay.NilAddress) && (f != ctx.Self())) && (overlay.HashAddress(f)).Between(ctx.SelfKey(), target)) && ((overlay.HashAddress(f)).Distance(target) < (overlay.HashAddress(best)).Distance(target)) {
			best = f
		}
	}
	if best != ctx.Self() {
		_ = ctx.Send(best, core.Put(&a.io.tx.FindReq, msgFindReq{Target: target, Origin: ctx.Self(), Purpose: 1, Finger: a.NextFinger, Ttl: 64}), overlay.PriorityDefault)
	}
}

// transition11 implements: (joined) API route [locking write;]
func (a *Agent) transition11(ctx *core.Context, call *core.APICall) {
	if (int32(ctx.Neighbors("pred").Size()) > 0) && (call.Dest).BetweenIncl(overlay.HashAddress(core.NeighborFirst(ctx, "pred")), ctx.SelfKey()) {
		ctx.Deliver(call.Payload, call.PayloadType, ctx.Self())
		return
	}
	var succ overlay.Address
	_ = succ
	succ = core.ListGet(a.Succs, 0)
	if (succ == overlay.NilAddress) || (succ == ctx.Self()) {
		ctx.Deliver(call.Payload, call.PayloadType, ctx.Self())
		return
	}
	if (call.Dest).BetweenIncl(ctx.SelfKey(), overlay.HashAddress(succ)) {
		fwOk, _, fwPayload := ctx.Forward(call.Payload, call.PayloadType, succ, overlay.HashAddress(succ))
		if !fwOk {
			return
		}
		_ = fwPayload
		_ = ctx.Send(succ, core.Put(&a.io.tx.Data, msgData{Dest: call.Dest, Src: ctx.Self(), Typ: call.PayloadType, Ttl: 64, Payload: fwPayload}), overlay.PriorityDefault)
		return
	}
	var best overlay.Address
	_ = best
	best = succ
	for _, f := range a.Fingers[:] {
		if (((f != overlay.NilAddress) && (f != ctx.Self())) && (overlay.HashAddress(f)).Between(ctx.SelfKey(), call.Dest)) && ((overlay.HashAddress(f)).Distance(call.Dest) < (overlay.HashAddress(best)).Distance(call.Dest)) {
			best = f
		}
	}
	for _, s := range a.Succs {
		if ((s != ctx.Self()) && (overlay.HashAddress(s)).Between(ctx.SelfKey(), call.Dest)) && ((overlay.HashAddress(s)).Distance(call.Dest) < (overlay.HashAddress(best)).Distance(call.Dest)) {
			best = s
		}
	}
	fwOk, _, fwPayload2 := ctx.Forward(call.Payload, call.PayloadType, best, overlay.HashAddress(best))
	if !fwOk {
		return
	}
	_ = fwPayload2
	_ = ctx.Send(best, core.Put(&a.io.tx.Data, msgData{Dest: call.Dest, Src: ctx.Self(), Typ: call.PayloadType, Ttl: 64, Payload: fwPayload2}), overlay.PriorityDefault)
}

// transition12 implements: (joined) recv data [locking write;]
func (a *Agent) transition12(ctx *core.Context, ev *core.MsgEvent, m *msgData) {
	if (int32(ctx.Neighbors("pred").Size()) > 0) && (m.Dest).BetweenIncl(overlay.HashAddress(core.NeighborFirst(ctx, "pred")), ctx.SelfKey()) {
		ctx.Deliver(m.Payload, m.Typ, m.Src)
		return
	}
	var succ overlay.Address
	_ = succ
	succ = core.ListGet(a.Succs, 0)
	if (succ == overlay.NilAddress) || (succ == ctx.Self()) {
		ctx.Deliver(m.Payload, m.Typ, m.Src)
		return
	}
	if m.Ttl == 0 {
		return
	}
	if (m.Dest).BetweenIncl(ctx.SelfKey(), overlay.HashAddress(succ)) {
		fwOk, _, fwPayload := ctx.Forward(m.Payload, m.Typ, succ, overlay.HashAddress(succ))
		if !fwOk {
			return
		}
		_ = fwPayload
		_ = ctx.Send(succ, core.Put(&a.io.tx.Data, msgData{Dest: m.Dest, Src: m.Src, Typ: m.Typ, Ttl: (m.Ttl - 1), Payload: fwPayload}), overlay.PriorityDefault)
		return
	}
	var best overlay.Address
	_ = best
	best = succ
	for _, f := range a.Fingers[:] {
		if (((f != overlay.NilAddress) && (f != ctx.Self())) && (overlay.HashAddress(f)).Between(ctx.SelfKey(), m.Dest)) && ((overlay.HashAddress(f)).Distance(m.Dest) < (overlay.HashAddress(best)).Distance(m.Dest)) {
			best = f
		}
	}
	for _, s := range a.Succs {
		if ((s != ctx.Self()) && (overlay.HashAddress(s)).Between(ctx.SelfKey(), m.Dest)) && ((overlay.HashAddress(s)).Distance(m.Dest) < (overlay.HashAddress(best)).Distance(m.Dest)) {
			best = s
		}
	}
	fwOk, _, fwPayload2 := ctx.Forward(m.Payload, m.Typ, best, overlay.HashAddress(best))
	if !fwOk {
		return
	}
	_ = fwPayload2
	_ = ctx.Send(best, core.Put(&a.io.tx.Data, msgData{Dest: m.Dest, Src: m.Src, Typ: m.Typ, Ttl: (m.Ttl - 1), Payload: fwPayload2}), overlay.PriorityDefault)
}

// transition13 implements: any API routeIP [locking write;]
func (a *Agent) transition13(ctx *core.Context, call *core.APICall) {
	if call.DestIP == ctx.Self() {
		ctx.Deliver(call.Payload, call.PayloadType, ctx.Self())
	} else {
		_ = ctx.Send(call.DestIP, core.Put(&a.io.tx.DataIp, msgDataIp{Src: ctx.Self(), Typ: call.PayloadType, Payload: call.Payload}), overlay.PriorityDefault)
	}
}

// transition14 implements: any recv data_ip [locking write;]
func (a *Agent) transition14(ctx *core.Context, ev *core.MsgEvent, m *msgDataIp) {
	ctx.Deliver(m.Payload, m.Typ, m.Src)
}

// transition15 implements: any API error [locking write;]
func (a *Agent) transition15(ctx *core.Context, call *core.APICall) {
	a.Succs = core.ListRemove(a.Succs, call.Failed)
	ctx.Neighbors("succ_nbrs").Assign(a.Succs, ctx.Self())
	ctx.Neighbors("pred").Remove(call.Failed)
	core.TableRemove(a.Fingers[:], call.Failed)
}
