// Code generated by "macedon gen" from specs/ammo.mac. DO NOT EDIT.

// Package ammo is the generated MACEDON agent for protocol "ammo".
package ammo

import (
	"slices"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

type msgJoin struct{}

func (m *msgJoin) MsgName() string { return "join" }

func (m *msgJoin) Encode(*overlay.Writer) {}

func (m *msgJoin) Decode(r *overlay.Reader) error { return r.Err() }

type msgJoinReply struct {
	Accept   bool
	Redirect overlay.Address
	RootPath []overlay.Address
	Family   []overlay.Address
}

func (m *msgJoinReply) MsgName() string { return "join_reply" }

func (m *msgJoinReply) Encode(w *overlay.Writer) {
	w.Bool(m.Accept)
	w.Addr(m.Redirect)
	w.Addrs(m.RootPath)
	w.Addrs(m.Family)
}

func (m *msgJoinReply) Decode(r *overlay.Reader) error {
	m.Accept = r.Bool()
	m.Redirect = r.Addr()
	m.RootPath = r.AppendAddrs(m.RootPath[:0])
	m.Family = r.AppendAddrs(m.Family[:0])
	return r.Err()
}

type msgLeave struct{}

func (m *msgLeave) MsgName() string { return "leave" }

func (m *msgLeave) Encode(*overlay.Writer) {}

func (m *msgLeave) Decode(r *overlay.Reader) error { return r.Err() }

type msgPathUpdate struct {
	RootPath []overlay.Address
	Family   []overlay.Address
}

func (m *msgPathUpdate) MsgName() string { return "path_update" }

func (m *msgPathUpdate) Encode(w *overlay.Writer) {
	w.Addrs(m.RootPath)
	w.Addrs(m.Family)
}

func (m *msgPathUpdate) Decode(r *overlay.Reader) error {
	m.RootPath = r.AppendAddrs(m.RootPath[:0])
	m.Family = r.AppendAddrs(m.Family[:0])
	return r.Err()
}

type msgProbeReq struct {
	Nonce int32
}

func (m *msgProbeReq) MsgName() string { return "probe_req" }

func (m *msgProbeReq) Encode(w *overlay.Writer) {
	w.I32(m.Nonce)
}

func (m *msgProbeReq) Decode(r *overlay.Reader) error {
	m.Nonce = r.I32()
	return r.Err()
}

type msgProbeResp struct {
	Nonce     int32
	RootPath  []overlay.Address
	Children  int32
	Capacity  int32
	Bandwidth float64
}

func (m *msgProbeResp) MsgName() string { return "probe_resp" }

func (m *msgProbeResp) Encode(w *overlay.Writer) {
	w.I32(m.Nonce)
	w.Addrs(m.RootPath)
	w.U16(uint16(m.Children))
	w.U16(uint16(m.Capacity))
	w.F64(m.Bandwidth)
}

func (m *msgProbeResp) Decode(r *overlay.Reader) error {
	m.Nonce = r.I32()
	m.RootPath = r.AppendAddrs(m.RootPath[:0])
	m.Children = int32(r.U16())
	m.Capacity = int32(r.U16())
	m.Bandwidth = r.F64()
	return r.Err()
}

type msgMdata struct {
	Src     overlay.Address
	Inc     int64
	Seq     int32
	Typ     int32
	Payload []byte
}

func (m *msgMdata) MsgName() string { return "mdata" }

func (m *msgMdata) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.I64(m.Inc)
	w.I32(m.Seq)
	w.I32(m.Typ)
	w.Bytes32(m.Payload)
}

func (m *msgMdata) Decode(r *overlay.Reader) error {
	m.Src = r.Addr()
	m.Inc = r.I64()
	m.Seq = r.I32()
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
	Join       msgJoin
	JoinReply  msgJoinReply
	Leave      msgLeave
	PathUpdate msgPathUpdate
	ProbeReq   msgProbeReq
	ProbeResp  msgProbeResp
	Mdata      msgMdata
}

// StateCopyOpaque keeps the scratch out of checkpoint images: between events
// it is garbage, and a copied slot would pin the payload it last saw.
func (*msgScratch) StateCopyOpaque() {}

// ProbesEntry is one record of the keytable probes.
type ProbesEntry struct {
	To overlay.Address
	At int64
}

// PendingEntry is one record of the keytable pending.
type PendingEntry struct {
	Heard bool
	Rtt   float64
	Bw    float64
	Full  bool
	Path  []overlay.Address
}

// SeenEntry is one record of the keytable seen.
type SeenEntry struct {
	Live bool
	Src  overlay.Address
	Inc  int64
}

// Agent is the generated protocol instance.
type Agent struct {
	Root       overlay.Address
	RootPath   []overlay.Address
	Family     []overlay.Address
	Sibs       []overlay.Address
	NextNonce  int32
	Awaiting   int32
	ParentCost float64
	Moves      int32
	Inc        int64
	NextSeq    int32
	Probes     map[int32]*ProbesEntry
	Pending    map[overlay.Address]*PendingEntry
	Seen       map[int32]*SeenEntry

	io msgScratch // a named field: embedding would promote StateCopyOpaque to Agent
}

// New returns a factory for generated ammo agents.
func New() core.Factory {
	return func() core.Agent { return &Agent{} }
}

// ProtocolName implements the engine's naming hook.
func (a *Agent) ProtocolName() string { return "ammo" }

// DefinedByType makes the agent core.TypeDefined: Define reads no agent and
// no transition keeps ev.Msg, so one Def serves every instance.
func (*Agent) DefinedByType() {}

// SetParam sets the int auxiliary variable name to v, reporting whether
// the spec declares one: how a scenario's params reach the agent.
func (a *Agent) SetParam(name string, v int32) bool {
	switch name {
	case "next_nonce":
		a.NextNonce = v
	case "awaiting":
		a.Awaiting = v
	case "moves":
		a.Moves = v
	case "next_seq":
		a.NextSeq = v
	default:
		return false
	}
	return true
}

// Routing fills v with the routing state the spec's routing declaration
// names: how the correctness plane and the fuzzer read this agent.
func (a *Agent) Routing(inst *core.Instance, v *core.RoutingView) {
	v.Kind = core.RoutingTree
	v.Parent = core.ListGet(inst.NeighborsSnapshot("parent"), 0)
	v.Children = inst.NeighborsSnapshot("kids")
}

// Define declares the generated FSM.
func (*Agent) Define(d *core.Def) {
	d.States("joining", "joined")
	d.Addressing(core.IPAddressing)
	d.UDPTransport("CTRL")
	d.TCPTransport("DATA")
	d.Message("join", func() overlay.Message { return &msgJoin{} }, "CTRL")
	d.Message("join_reply", func() overlay.Message { return &msgJoinReply{} }, "CTRL")
	d.Message("leave", func() overlay.Message { return &msgLeave{} }, "CTRL")
	d.Message("path_update", func() overlay.Message { return &msgPathUpdate{} }, "CTRL")
	d.Message("probe_req", func() overlay.Message { return &msgProbeReq{} }, "CTRL")
	d.Message("probe_resp", func() overlay.Message { return &msgProbeResp{} }, "CTRL")
	d.Message("mdata", func() overlay.Message { return &msgMdata{} }, "DATA")
	d.PeriodicTimer("eval", 8000*time.Millisecond)
	d.Timer("probe_deadline", 3000*time.Millisecond)
	d.Timer("join_retry", 5000*time.Millisecond)
	d.NeighborList("parent", 1, true)
	d.NeighborList("kids", 4, true)
	d.OnAPI(overlay.APIInit, core.In("init"), core.Write, core.APIOf((*Agent).transition0))
	d.OnAPI(overlay.APIMulticast, core.In("joined"), core.Read, core.APIOf((*Agent).transition1))
	d.OnAPI(overlay.APIError, core.In("joined"), core.Write, core.APIOf((*Agent).transition2))
	d.OnAPI(overlay.APIError, core.Not(core.In("joined")), core.Write, core.APIOf((*Agent).transition3))
	d.OnRecv("join", core.In("joined"), core.Write, core.RecvOf((*Agent).transition4))
	d.OnRecv("join_reply", core.In("joining"), core.Write, core.RecvOf((*Agent).transition5))
	d.OnRecv("leave", core.Any, core.Write, core.RecvOf((*Agent).transition6))
	d.OnRecv("path_update", core.Any, core.Write, core.RecvOf((*Agent).transition7))
	d.OnRecv("probe_req", core.Any, core.Read, core.RecvOf((*Agent).transition8))
	d.OnRecv("probe_resp", core.Any, core.Write, core.RecvOf((*Agent).transition9))
	d.OnRecv("mdata", core.Not(core.In("init")), core.Read, core.RecvOf((*Agent).transition10))
	d.OnTimer("eval", core.In("joined"), core.Write, core.TimerOf((*Agent).transition11))
	d.OnTimer("probe_deadline", core.In("joined"), core.Write, core.TimerOf((*Agent).transition12))
	d.OnTimer("join_retry", core.In("joining"), core.Write, core.TimerOf((*Agent).transition13))
}

// transition0 implements: (init) API init [locking write;]
func (a *Agent) transition0(ctx *core.Context, call *core.APICall) {
	a.Root = call.Bootstrap
	a.Inc = ctx.Now().UnixNano()
	if (a.Root == ctx.Self()) || (a.Root == overlay.NilAddress) {
		a.RootPath = a.RootPath[:0]
		a.RootPath = core.ListAppend(a.RootPath, ctx.Self())
		ctx.StateChange("joined")
		ctx.TimerSched("eval", time.Duration(core.Spread(ctx, 8000)))
		return
	}
	ctx.StateChange("joining")
	_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
	ctx.TimerResched("join_retry", 5000*time.Millisecond)
}

// transition1 implements: (joined) API multicast [locking read;]
func (a *Agent) transition1(ctx *core.Context, call *core.APICall) {
	a.NextSeq = (a.NextSeq + 1)
	for _, k := range ctx.Neighbors("kids").Addrs() {
		fwOk, _, fwPayload := ctx.Forward(call.Payload, call.PayloadType, k, overlay.HashAddress(k))
		if !fwOk {
			return
		}
		_ = fwPayload
		_ = ctx.Send(k, core.Put(&a.io.tx.Mdata, msgMdata{Src: ctx.Self(), Inc: a.Inc, Seq: a.NextSeq, Typ: call.PayloadType, Payload: fwPayload}), int(call.Priority))
	}
}

// transition2 implements: (joined) API error [locking write;]
func (a *Agent) transition2(ctx *core.Context, call *core.APICall) {
	if (int32(ctx.Neighbors("parent").Size()) == 0) && (ctx.Self() != a.Root) {
		ctx.StateChange("joining")
		_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
		ctx.TimerResched("join_retry", 5000*time.Millisecond)
	}
	ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
}

// transition3 implements: !(joined) API error [locking write;]
func (a *Agent) transition3(ctx *core.Context, call *core.APICall) {
	ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
}

// transition4 implements: (joined) recv join [locking write;]
func (a *Agent) transition4(ctx *core.Context, ev *core.MsgEvent, m *msgJoin) {
	if !(ctx.Neighbors("kids").Contains(ev.From)) && ctx.Neighbors("kids").Full() {
		_ = ctx.Send(ev.From, core.Put(&a.io.tx.JoinReply, msgJoinReply{Accept: false, Redirect: core.NeighborRandom(ctx, "kids")}), overlay.PriorityDefault)
		return
	}
	ctx.Neighbors("kids").Add(ev.From)
	a.Sibs = a.Sibs[:0]
	a.Sibs = core.ListAppend(a.Sibs, core.ListGet(a.RootPath, 1))
	for _, k := range ctx.Neighbors("kids").Addrs() {
		if k != ev.From {
			a.Sibs = core.ListAppend(a.Sibs, k)
		}
	}
	_ = ctx.Send(ev.From, core.Put(&a.io.tx.JoinReply, msgJoinReply{Accept: true, RootPath: a.RootPath, Family: a.Sibs}), overlay.PriorityDefault)
	ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
}

// transition5 implements: (joining) recv join_reply [locking write;]
func (a *Agent) transition5(ctx *core.Context, ev *core.MsgEvent, m *msgJoinReply) {
	if !(m.Accept) {
		var target overlay.Address = m.Redirect
		_ = target
		if (target == overlay.NilAddress) || (target == ctx.Self()) {
			target = a.Root
		}
		_ = ctx.Send(target, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
		return
	}
	if (int32(ctx.Neighbors("parent").Size()) > 0) && (core.NeighborFirst(ctx, "parent") != ev.From) {
		_ = ctx.Send(core.NeighborFirst(ctx, "parent"), core.Put(&a.io.tx.Leave, msgLeave{}), overlay.PriorityDefault)
	}
	ctx.Neighbors("parent").Clear()
	ctx.Neighbors("parent").Add(ev.From)
	a.RootPath = append(a.RootPath[:0], m.RootPath...)
	a.RootPath = core.ListPrepend(a.RootPath, ctx.Self())
	a.Family = append(a.Family[:0], m.Family...)
	a.ParentCost = 0
	ctx.TimerCancel("join_retry")
	ctx.StateChange("joined")
	ctx.TimerSched("eval", time.Duration(core.Spread(ctx, 8000)))
	ctx.NotifyNeighbors(overlay.NbrTypeParent, []overlay.Address{ev.From})
	for _, k := range ctx.Neighbors("kids").Addrs() {
		a.Sibs = a.Sibs[:0]
		a.Sibs = core.ListAppend(a.Sibs, core.ListGet(a.RootPath, 1))
		for _, o := range ctx.Neighbors("kids").Addrs() {
			if o != k {
				a.Sibs = core.ListAppend(a.Sibs, o)
			}
		}
		_ = ctx.Send(k, core.Put(&a.io.tx.PathUpdate, msgPathUpdate{RootPath: a.RootPath, Family: a.Sibs}), overlay.PriorityDefault)
	}
}

// transition6 implements: any recv leave [locking write;]
func (a *Agent) transition6(ctx *core.Context, ev *core.MsgEvent, m *msgLeave) {
	ctx.Neighbors("kids").Remove(ev.From)
	ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
}

// transition7 implements: any recv path_update [locking write;]
func (a *Agent) transition7(ctx *core.Context, ev *core.MsgEvent, m *msgPathUpdate) {
	if !(ctx.Neighbors("parent").Contains(ev.From)) {
		return
	}
	a.RootPath = append(a.RootPath[:0], m.RootPath...)
	a.RootPath = core.ListPrepend(a.RootPath, ctx.Self())
	a.Family = append(a.Family[:0], m.Family...)
	for _, k := range ctx.Neighbors("kids").Addrs() {
		a.Sibs = a.Sibs[:0]
		a.Sibs = core.ListAppend(a.Sibs, core.ListGet(a.RootPath, 1))
		for _, o := range ctx.Neighbors("kids").Addrs() {
			if o != k {
				a.Sibs = core.ListAppend(a.Sibs, o)
			}
		}
		_ = ctx.Send(k, core.Put(&a.io.tx.PathUpdate, msgPathUpdate{RootPath: a.RootPath, Family: a.Sibs}), overlay.PriorityDefault)
	}
}

// transition8 implements: any recv probe_req [locking read;]
func (a *Agent) transition8(ctx *core.Context, ev *core.MsgEvent, m *msgProbeReq) {
	_ = ctx.Send(ev.From, core.Put(&a.io.tx.ProbeResp, msgProbeResp{Nonce: m.Nonce, RootPath: a.RootPath, Children: int32(ctx.Neighbors("kids").Size()), Capacity: 4, Bandwidth: 10e6}), overlay.PriorityDefault)
}

// transition9 implements: any recv probe_resp [locking write;]
func (a *Agent) transition9(ctx *core.Context, ev *core.MsgEvent, m *msgProbeResp) {
	var to overlay.Address = core.KeyRead(a.Probes, m.Nonce).To
	_ = to
	if to == overlay.NilAddress {
		return
	}
	var rtt float64 = core.Millis(ctx.Now().UnixNano(), core.KeyRead(a.Probes, m.Nonce).At)
	_ = rtt
	delete(a.Probes, m.Nonce)
	core.KeyEntry(&a.Pending, to).Heard = true
	core.KeyEntry(&a.Pending, to).Rtt = rtt
	core.KeyEntry(&a.Pending, to).Bw = (m.Bandwidth / float64((m.Children + 1)))
	core.ListSet(&core.KeyEntry(&a.Pending, to).Path, m.RootPath)
	core.KeyEntry(&a.Pending, to).Full = (m.Children >= m.Capacity)
	a.Awaiting = (a.Awaiting - 1)
	if a.Awaiting > 0 {
		return
	}
	ctx.TimerCancel("probe_deadline")
	var papa overlay.Address = core.ListGet(a.RootPath, 1)
	_ = papa
	if core.KeyRead(a.Pending, papa).Heard {
		var inv float64 = 0
		_ = inv
		if core.KeyRead(a.Pending, papa).Bw > 0 {
			inv = (1e6 / core.KeyRead(a.Pending, papa).Bw)
		}
		a.ParentCost = ((1 * core.KeyRead(a.Pending, papa).Rtt) + (0 * inv))
	}
	var best overlay.Address = overlay.NilAddress
	_ = best
	var best_cost float64 = 0
	_ = best_cost
	for _, c := range core.Keys(a.Pending) {
		if ((c != papa) && !(core.KeyRead(a.Pending, c).Full)) && !(slices.Contains(core.KeyRead(a.Pending, c).Path, ctx.Self())) {
			var inv float64 = 0
			_ = inv
			if core.KeyRead(a.Pending, c).Bw > 0 {
				inv = (1e6 / core.KeyRead(a.Pending, c).Bw)
			}
			var cost float64 = ((1 * core.KeyRead(a.Pending, c).Rtt) + (0 * inv))
			_ = cost
			if (best == overlay.NilAddress) || (cost < best_cost) {
				best = c
				best_cost = cost
			}
		}
	}
	if (best == overlay.NilAddress) || (a.ParentCost == 0) {
		return
	}
	if (best_cost * 1.2) < a.ParentCost {
		a.Moves = (a.Moves + 1)
		ctx.StateChange("joining")
		_ = ctx.Send(best, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
		ctx.TimerResched("join_retry", 5000*time.Millisecond)
	}
}

// transition10 implements: !(init) recv mdata [locking read;]
func (a *Agent) transition10(ctx *core.Context, ev *core.MsgEvent, m *msgMdata) {
	if (core.KeyRead(a.Seen, m.Seq).Live && (core.KeyRead(a.Seen, m.Seq).Src == m.Src)) && (core.KeyRead(a.Seen, m.Seq).Inc == m.Inc) {
		return
	}
	core.KeyEntry(&a.Seen, m.Seq).Live = true
	core.KeyEntry(&a.Seen, m.Seq).Src = m.Src
	core.KeyEntry(&a.Seen, m.Seq).Inc = m.Inc
	if int32(len(a.Seen)) > 8192 {
		clear(a.Seen)
		core.KeyEntry(&a.Seen, m.Seq).Live = true
		core.KeyEntry(&a.Seen, m.Seq).Src = m.Src
		core.KeyEntry(&a.Seen, m.Seq).Inc = m.Inc
	}
	for _, k := range ctx.Neighbors("kids").Addrs() {
		if k != ev.From {
			fwOk, _, fwPayload := ctx.Forward(m.Payload, m.Typ, k, overlay.HashAddress(k))
			if !fwOk {
				return
			}
			_ = fwPayload
			_ = ctx.Send(k, core.Put(&a.io.tx.Mdata, msgMdata{Src: m.Src, Inc: m.Inc, Seq: m.Seq, Typ: m.Typ, Payload: fwPayload}), overlay.PriorityDefault)
		}
	}
	if m.Src != ctx.Self() {
		ctx.Deliver(m.Payload, m.Typ, m.Src)
	}
}

// transition11 implements: (joined) timer eval [locking write;]
func (a *Agent) transition11(ctx *core.Context) {
	if (ctx.Self() == a.Root) || (int32(len(a.Family)) == 0) {
		return
	}
	clear(a.Pending)
	a.Sibs = append(a.Sibs[:0], a.Family...)
	a.Sibs = core.ListAppend(a.Sibs, core.ListGet(a.RootPath, 1))
	a.Awaiting = int32(len(a.Sibs))
	for _, t := range a.Sibs {
		if t == ctx.Self() {
			a.Awaiting = (a.Awaiting - 1)
		} else {
			a.NextNonce = (a.NextNonce + 1)
			core.KeyEntry(&a.Probes, a.NextNonce).To = t
			core.KeyEntry(&a.Probes, a.NextNonce).At = ctx.Now().UnixNano()
			_ = ctx.Send(t, core.Put(&a.io.tx.ProbeReq, msgProbeReq{Nonce: a.NextNonce}), overlay.PriorityDefault)
		}
	}
	if a.Awaiting > 0 {
		ctx.TimerResched("probe_deadline", 3000*time.Millisecond)
	}
}

// transition12 implements: (joined) timer probe_deadline [locking write;]
func (a *Agent) transition12(ctx *core.Context) {
	a.Awaiting = 0
	var papa overlay.Address = core.ListGet(a.RootPath, 1)
	_ = papa
	if core.KeyRead(a.Pending, papa).Heard {
		var inv float64 = 0
		_ = inv
		if core.KeyRead(a.Pending, papa).Bw > 0 {
			inv = (1e6 / core.KeyRead(a.Pending, papa).Bw)
		}
		a.ParentCost = ((1 * core.KeyRead(a.Pending, papa).Rtt) + (0 * inv))
	}
	var best overlay.Address = overlay.NilAddress
	_ = best
	var best_cost float64 = 0
	_ = best_cost
	for _, c := range core.Keys(a.Pending) {
		if ((c != papa) && !(core.KeyRead(a.Pending, c).Full)) && !(slices.Contains(core.KeyRead(a.Pending, c).Path, ctx.Self())) {
			var inv float64 = 0
			_ = inv
			if core.KeyRead(a.Pending, c).Bw > 0 {
				inv = (1e6 / core.KeyRead(a.Pending, c).Bw)
			}
			var cost float64 = ((1 * core.KeyRead(a.Pending, c).Rtt) + (0 * inv))
			_ = cost
			if (best == overlay.NilAddress) || (cost < best_cost) {
				best = c
				best_cost = cost
			}
		}
	}
	if (best == overlay.NilAddress) || (a.ParentCost == 0) {
		return
	}
	if (best_cost * 1.2) < a.ParentCost {
		a.Moves = (a.Moves + 1)
		ctx.StateChange("joining")
		_ = ctx.Send(best, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
		ctx.TimerResched("join_retry", 5000*time.Millisecond)
	}
}

// transition13 implements: (joining) timer join_retry [locking write;]
func (a *Agent) transition13(ctx *core.Context) {
	_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
	ctx.TimerResched("join_retry", 5000*time.Millisecond)
}
