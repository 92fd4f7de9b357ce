// Code generated by "macedon gen" from specs/overcast.mac. DO NOT EDIT.

// Package overcast is the generated MACEDON agent for protocol "overcast".
package overcast

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
	Response    int32
	Redirect    overlay.Address
	Grandparent overlay.Address
	Siblings    []overlay.Address
	RootPath    []overlay.Address
}

func (m *msgJoinReply) MsgName() string { return "join_reply" }

func (m *msgJoinReply) Encode(w *overlay.Writer) {
	w.I32(m.Response)
	w.Addr(m.Redirect)
	w.Addr(m.Grandparent)
	w.Addrs(m.Siblings)
	w.Addrs(m.RootPath)
}

func (m *msgJoinReply) Decode(r *overlay.Reader) error {
	m.Response = r.I32()
	m.Redirect = r.Addr()
	m.Grandparent = r.Addr()
	m.Siblings = r.AppendAddrs(m.Siblings[:0])
	m.RootPath = r.AppendAddrs(m.RootPath[:0])
	return r.Err()
}

type msgRemove struct{}

func (m *msgRemove) MsgName() string { return "remove" }

func (m *msgRemove) Encode(*overlay.Writer) {}

func (m *msgRemove) Decode(r *overlay.Reader) error { return r.Err() }

type msgProbeRequest struct {
	Count int32
}

func (m *msgProbeRequest) MsgName() string { return "probe_request" }

func (m *msgProbeRequest) Encode(w *overlay.Writer) {
	w.U16(uint16(m.Count))
}

func (m *msgProbeRequest) Decode(r *overlay.Reader) error {
	m.Count = int32(r.U16())
	return r.Err()
}

type msgProbe struct {
	Idx   int32
	Total int32
	Pad   []byte
}

func (m *msgProbe) MsgName() string { return "probe" }

func (m *msgProbe) Encode(w *overlay.Writer) {
	w.U16(uint16(m.Idx))
	w.U16(uint16(m.Total))
	w.Bytes32(m.Pad)
}

func (m *msgProbe) Decode(r *overlay.Reader) error {
	m.Idx = int32(r.U16())
	m.Total = int32(r.U16())
	m.Pad = r.Bytes32()
	return r.Err()
}

type msgProbeReply struct {
	Sent     int32
	RootPath []overlay.Address
}

func (m *msgProbeReply) MsgName() string { return "probe_reply" }

func (m *msgProbeReply) Encode(w *overlay.Writer) {
	w.U16(uint16(m.Sent))
	w.Addrs(m.RootPath)
}

func (m *msgProbeReply) Decode(r *overlay.Reader) error {
	m.Sent = int32(r.U16())
	m.RootPath = r.AppendAddrs(m.RootPath[:0])
	return r.Err()
}

type msgFamily struct {
	Grandparent overlay.Address
	Siblings    []overlay.Address
	RootPath    []overlay.Address
}

func (m *msgFamily) MsgName() string { return "family" }

func (m *msgFamily) Encode(w *overlay.Writer) {
	w.Addr(m.Grandparent)
	w.Addrs(m.Siblings)
	w.Addrs(m.RootPath)
}

func (m *msgFamily) Decode(r *overlay.Reader) error {
	m.Grandparent = r.Addr()
	m.Siblings = r.AppendAddrs(m.Siblings[:0])
	m.RootPath = r.AppendAddrs(m.RootPath[:0])
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
	Join         msgJoin
	JoinReply    msgJoinReply
	Remove       msgRemove
	ProbeRequest msgProbeRequest
	Probe        msgProbe
	ProbeReply   msgProbeReply
	Family       msgFamily
	Mdata        msgMdata
	Drop         msgDrop
}

// StateCopyOpaque keeps the scratch out of checkpoint images: between events
// it is garbage, and a copied slot would pin the payload it last saw.
func (*msgScratch) StateCopyOpaque() {}

// CandsEntry is one record of the keytable cands.
type CandsEntry struct {
	Seen  int32
	First int64
	Last  int64
	Bw    float64
	Path  []overlay.Address
}

// HeardEntry is one record of the keytable heard.
type HeardEntry struct {
	Live bool
	Inc  int64
}

// Agent is the generated protocol instance.
type Agent struct {
	Root         overlay.Address
	Grandpa      overlay.Address
	Brothers     []overlay.Address
	RootPath     []overlay.Address
	Sibs         []overlay.Address
	Awaiting     int32
	PapaBw       float64
	Moves        int32
	ProbedNode   overlay.Address
	ProbesToSend int32
	Inc          int64
	NextSeq      int32
	CurInc       int64
	CurHigh      int32
	Cands        map[overlay.Address]*CandsEntry
	Heard        map[int32]*HeardEntry
	Backlog      []msgMdata

	io msgScratch // a named field: embedding would promote StateCopyOpaque to Agent
}

// New returns a factory for generated overcast agents.
func New() core.Factory {
	return func() core.Agent { return &Agent{} }
}

// ProtocolName implements the engine's naming hook.
func (a *Agent) ProtocolName() string { return "overcast" }

// DefinedByType makes the agent core.TypeDefined: Define reads no agent and
// no transition keeps ev.Msg, so one Def serves every instance.
func (*Agent) DefinedByType() {}

// SetParam sets the int auxiliary variable name to v, reporting whether
// the spec declares one: how a scenario's params reach the agent.
func (a *Agent) SetParam(name string, v int32) bool {
	switch name {
	case "awaiting":
		a.Awaiting = v
	case "moves":
		a.Moves = v
	case "probes_to_send":
		a.ProbesToSend = v
	case "next_seq":
		a.NextSeq = v
	case "cur_high":
		a.CurHigh = v
	default:
		return false
	}
	return true
}

// Routing fills v with the routing state the spec's routing declaration
// names: how the correctness plane and the fuzzer read this agent.
func (a *Agent) Routing(inst *core.Instance, v *core.RoutingView) {
	v.Kind = core.RoutingTree
	v.Parent = core.ListGet(inst.NeighborsSnapshot("papa"), 0)
	v.Children = inst.NeighborsSnapshot("kids")
}

// Define declares the generated FSM.
func (*Agent) Define(d *core.Def) {
	d.States("joining", "joined", "probing", "probed")
	d.Addressing(core.IPAddressing)
	d.SWPTransport("HIGHEST")
	d.TCPTransport("HIGH")
	d.TCPTransport("MED")
	d.TCPTransport("LOW")
	d.UDPTransport("BEST_EFFORT")
	d.Message("join", func() overlay.Message { return &msgJoin{} }, "BEST_EFFORT")
	d.Message("join_reply", func() overlay.Message { return &msgJoinReply{} }, "HIGHEST")
	d.Message("remove", func() overlay.Message { return &msgRemove{} }, "HIGH")
	d.Message("probe_request", func() overlay.Message { return &msgProbeRequest{} }, "HIGHEST")
	d.Message("probe", func() overlay.Message { return &msgProbe{} }, "BEST_EFFORT")
	d.Message("probe_reply", func() overlay.Message { return &msgProbeReply{} }, "HIGHEST")
	d.Message("family", func() overlay.Message { return &msgFamily{} }, "MED")
	d.Message("mdata", func() overlay.Message { return &msgMdata{} }, "MED")
	d.Message("drop", func() overlay.Message { return &msgDrop{} }, "BEST_EFFORT")
	d.Timer("probe_requester", 10000*time.Millisecond)
	d.Timer("keep_probing", 20*time.Millisecond)
	d.Timer("probe_timeout", 5000*time.Millisecond)
	d.Timer("join_retry", 2000*time.Millisecond)
	d.NeighborList("papa", 1, true)
	d.NeighborList("kids", 6, true)
	d.OnAPI(overlay.APIInit, core.In("init"), core.Write, core.APIOf((*Agent).transition0))
	d.OnAPI(overlay.APIMulticast, core.Not(core.In("init", "joining")), core.Read, core.APIOf((*Agent).transition1))
	d.OnAPI(overlay.APIError, core.Not(core.In("init", "joining")), core.Write, core.APIOf((*Agent).transition2))
	d.OnAPI(overlay.APIError, core.In("init", "joining"), core.Write, core.APIOf((*Agent).transition3))
	d.OnRecv("drop", core.Any, core.Write, core.RecvOf((*Agent).transition4))
	d.OnRecv("join", core.Not(core.In("joining", "init")), core.Write, core.RecvOf((*Agent).transition5))
	d.OnRecv("join_reply", core.In("joining"), core.Write, core.RecvOf((*Agent).transition6))
	d.OnRecv("remove", core.Any, core.Write, core.RecvOf((*Agent).transition7))
	d.OnRecv("probe_request", core.In("joined"), core.Write, core.RecvOf((*Agent).transition8))
	d.OnRecv("probe_request", core.In("joining", "probing", "probed"), core.Write, core.RecvOf((*Agent).transition9))
	d.OnRecv("probe", core.In("probed"), core.Write, core.RecvOf((*Agent).transition10))
	d.OnRecv("probe_reply", core.In("probed"), core.Write, core.RecvOf((*Agent).transition11))
	d.OnRecv("family", core.Any, core.Write, core.RecvOf((*Agent).transition12))
	d.OnRecv("mdata", core.Not(core.In("init", "joining")), core.Read, core.RecvOf((*Agent).transition13))
	d.OnTimer("probe_requester", core.In("joined"), core.Write, core.TimerOf((*Agent).transition14))
	d.OnTimer("keep_probing", core.In("probing"), core.Read, core.TimerOf((*Agent).transition15))
	d.OnTimer("probe_timeout", core.In("probed"), core.Write, core.TimerOf((*Agent).transition16))
	d.OnTimer("join_retry", core.In("joining"), core.Write, core.TimerOf((*Agent).transition17))
}

// transition0 implements: (init) API init [locking write;]
func (a *Agent) transition0(ctx *core.Context, call *core.APICall) {
	a.Root = call.Bootstrap
	a.Inc = ctx.Now().UnixNano()
	a.RootPath = a.RootPath[:0]
	a.RootPath = core.ListAppend(a.RootPath, ctx.Self())
	if (a.Root == ctx.Self()) || (a.Root == overlay.NilAddress) {
		ctx.StateChange("joined")
		return
	}
	ctx.StateChange("joining")
	_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
	ctx.TimerResched("join_retry", 2000*time.Millisecond)
}

// transition1 implements: !(init|joining) API multicast [locking read;]
func (a *Agent) transition1(ctx *core.Context, call *core.APICall) {
	a.NextSeq = (a.NextSeq + 1)
	a.Backlog = core.LogAppend(a.Backlog, msgMdata{Src: ctx.Self(), Inc: a.Inc, Seq: a.NextSeq, Typ: call.PayloadType, Payload: append([]byte(nil), call.Payload...)}, 64)
	for _, k := range ctx.Neighbors("kids").Addrs() {
		fwOk, _, fwPayload := ctx.Forward(call.Payload, call.PayloadType, k, overlay.HashAddress(k))
		if !fwOk {
			return
		}
		_ = fwPayload
		_ = ctx.Send(k, core.Put(&a.io.tx.Mdata, msgMdata{Src: ctx.Self(), Inc: a.Inc, Seq: a.NextSeq, Typ: call.PayloadType, Payload: fwPayload}), int(call.Priority))
	}
}

// transition2 implements: !(init|joining) API error [locking write;]
func (a *Agent) transition2(ctx *core.Context, call *core.APICall) {
	if (int32(ctx.Neighbors("papa").Size()) == 0) && (ctx.Self() != a.Root) {
		ctx.StateChange("joining")
		_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
		ctx.TimerResched("join_retry", 2000*time.Millisecond)
	}
	_ = ctx.Send(call.Failed, core.Put(&a.io.tx.Drop, msgDrop{}), overlay.PriorityDefault)
	ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
}

// transition3 implements: (init|joining) API error [locking write;]
func (a *Agent) transition3(ctx *core.Context, call *core.APICall) {
	_ = ctx.Send(call.Failed, core.Put(&a.io.tx.Drop, msgDrop{}), overlay.PriorityDefault)
	ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
}

// transition4 implements: any recv drop [locking write;]
func (a *Agent) transition4(ctx *core.Context, ev *core.MsgEvent, m *msgDrop) {
	if ctx.Neighbors("kids").Contains(ev.From) {
		ctx.Neighbors("kids").Remove(ev.From)
		ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
	}
	if ctx.Neighbors("papa").Contains(ev.From) && (ctx.Self() != a.Root) {
		ctx.Neighbors("papa").Clear()
		ctx.StateChange("joining")
		_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
		ctx.TimerResched("join_retry", 2000*time.Millisecond)
	}
}

// transition5 implements: !(joining|init) recv join [locking write;]
func (a *Agent) transition5(ctx *core.Context, ev *core.MsgEvent, m *msgJoin) {
	if (ev.From != ctx.Self()) && slices.Contains(a.RootPath, ev.From) {
		_ = ctx.Send(ev.From, core.Put(&a.io.tx.JoinReply, msgJoinReply{Response: 0, Redirect: a.Root}), overlay.PriorityDefault)
		return
	}
	if !(ctx.Neighbors("kids").Contains(ev.From)) && ctx.Neighbors("kids").Full() {
		_ = ctx.Send(ev.From, core.Put(&a.io.tx.JoinReply, msgJoinReply{Response: 0, Redirect: core.NeighborRandom(ctx, "kids")}), overlay.PriorityDefault)
		return
	}
	ctx.Neighbors("kids").Add(ev.From)
	a.Sibs = a.Sibs[:0]
	for _, k := range ctx.Neighbors("kids").Addrs() {
		if k != ev.From {
			a.Sibs = core.ListAppend(a.Sibs, k)
		}
	}
	_ = ctx.Send(ev.From, core.Put(&a.io.tx.JoinReply, msgJoinReply{Response: 1, Grandparent: core.NeighborFirst(ctx, "papa"), Siblings: a.Sibs, RootPath: a.RootPath}), overlay.PriorityDefault)
	ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
	core.LogReplay(ctx, a.Backlog, ev.From, 3)
}

// transition6 implements: (joining) recv join_reply [locking write;]
func (a *Agent) transition6(ctx *core.Context, ev *core.MsgEvent, m *msgJoinReply) {
	if m.Response == 1 {
		if int32(ctx.Neighbors("papa").Size()) > 0 {
			if core.NeighborFirst(ctx, "papa") != ev.From {
				_ = ctx.Send(core.NeighborFirst(ctx, "papa"), core.Put(&a.io.tx.Remove, msgRemove{}), overlay.PriorityDefault)
			}
			ctx.Neighbors("papa").Clear()
		}
		ctx.Neighbors("papa").Add(ev.From)
		a.PapaBw = 0
		ctx.StateChange("joined")
		ctx.TimerCancel("join_retry")
		ctx.TimerResched("probe_requester", time.Duration(core.Spread(ctx, 10000)))
		a.Grandpa = m.Grandparent
		a.Brothers = append(a.Brothers[:0], m.Siblings...)
		if slices.Contains(m.RootPath, ctx.Self()) {
			ctx.Neighbors("papa").Clear()
			ctx.StateChange("joining")
			_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
			ctx.TimerResched("join_retry", 2000*time.Millisecond)
		} else {
			a.RootPath = append(a.RootPath[:0], m.RootPath...)
			a.RootPath = core.ListPrepend(a.RootPath, ctx.Self())
			for _, k := range ctx.Neighbors("kids").Addrs() {
				a.Sibs = a.Sibs[:0]
				for _, o := range ctx.Neighbors("kids").Addrs() {
					if o != k {
						a.Sibs = core.ListAppend(a.Sibs, o)
					}
				}
				_ = ctx.Send(k, core.Put(&a.io.tx.Family, msgFamily{Grandparent: core.NeighborFirst(ctx, "papa"), Siblings: a.Sibs, RootPath: a.RootPath}), overlay.PriorityDefault)
			}
		}
		ctx.NotifyNeighbors(overlay.NbrTypeParent, []overlay.Address{ev.From})
		return
	}
	var target overlay.Address = m.Redirect
	_ = target
	if (target == overlay.NilAddress) || (target == ctx.Self()) {
		target = a.Root
	}
	if int32(ctx.Neighbors("papa").Size()) > 0 {
		ctx.StateChange("joined")
		ctx.TimerCancel("join_retry")
		return
	}
	_ = ctx.Send(target, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
}

// transition7 implements: any recv remove [locking write;]
func (a *Agent) transition7(ctx *core.Context, ev *core.MsgEvent, m *msgRemove) {
	ctx.Neighbors("kids").Remove(ev.From)
	ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
}

// transition8 implements: (joined) recv probe_request [locking write;]
func (a *Agent) transition8(ctx *core.Context, ev *core.MsgEvent, m *msgProbeRequest) {
	a.ProbedNode = ev.From
	a.ProbesToSend = m.Count
	ctx.StateChange("probing")
	if a.ProbesToSend > 0 {
		a.ProbesToSend = (a.ProbesToSend - 1)
		_ = ctx.Send(a.ProbedNode, core.Put(&a.io.tx.Probe, msgProbe{Idx: ((10 - a.ProbesToSend) - 1), Total: 10, Pad: make([]byte, 1000)}), overlay.PriorityDefault)
		if a.ProbesToSend > 0 {
			ctx.TimerResched("keep_probing", 20*time.Millisecond)
		} else {
			_ = ctx.Send(a.ProbedNode, core.Put(&a.io.tx.ProbeReply, msgProbeReply{Sent: 10, RootPath: a.RootPath}), overlay.PriorityDefault)
			ctx.StateChange("joined")
		}
	}
}

// transition9 implements: (joining|probing|probed) recv probe_request [locking write;]
func (a *Agent) transition9(ctx *core.Context, ev *core.MsgEvent, m *msgProbeRequest) {
}

// transition10 implements: (probed) recv probe [locking write;]
func (a *Agent) transition10(ctx *core.Context, ev *core.MsgEvent, m *msgProbe) {
	if core.KeyRead(a.Cands, ev.From).Seen == 0 {
		core.KeyEntry(&a.Cands, ev.From).First = ctx.Now().UnixNano()
	}
	core.KeyEntry(&a.Cands, ev.From).Last = ctx.Now().UnixNano()
	core.KeyEntry(&a.Cands, ev.From).Seen = (core.KeyRead(a.Cands, ev.From).Seen + 1)
}

// transition11 implements: (probed) recv probe_reply [locking write;]
func (a *Agent) transition11(ctx *core.Context, ev *core.MsgEvent, m *msgProbeReply) {
	core.ListSet(&core.KeyEntry(&a.Cands, ev.From).Path, m.RootPath)
	var seen int32 = core.KeyRead(a.Cands, ev.From).Seen
	_ = seen
	if seen >= 2 {
		var spread float64 = core.Seconds(core.KeyRead(a.Cands, ev.From).Last, core.KeyRead(a.Cands, ev.From).First)
		_ = spread
		if spread > 0 {
			core.KeyEntry(&a.Cands, ev.From).Bw = (float64((((seen - 1) * 1000) * 8)) / spread)
		}
	}
	a.Awaiting = (a.Awaiting - 1)
	if a.Awaiting > 0 {
		return
	}
	ctx.TimerCancel("probe_timeout")
	var best overlay.Address = overlay.NilAddress
	_ = best
	var best_bw float64 = 0
	_ = best_bw
	for _, c := range core.Keys(a.Cands) {
		if (core.KeyRead(a.Cands, c).Bw > best_bw) && !(slices.Contains(core.KeyRead(a.Cands, c).Path, ctx.Self())) {
			best = c
			best_bw = core.KeyRead(a.Cands, c).Bw
		}
	}
	if ((int32(ctx.Neighbors("papa").Size()) > 0) && (best != overlay.NilAddress)) && (best != core.NeighborFirst(ctx, "papa")) {
		var parent_bw float64 = a.PapaBw
		_ = parent_bw
		if core.KeyRead(a.Cands, core.NeighborFirst(ctx, "papa")).Bw > 0 {
			parent_bw = core.KeyRead(a.Cands, core.NeighborFirst(ctx, "papa")).Bw
			a.PapaBw = parent_bw
		}
		if (parent_bw == 0) || (best_bw > (parent_bw * 1.2)) {
			a.Moves = (a.Moves + 1)
			ctx.StateChange("joining")
			_ = ctx.Send(best, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
			ctx.TimerResched("join_retry", 2000*time.Millisecond)
			return
		}
	}
	if (int32(ctx.Neighbors("papa").Size()) == 0) && (ctx.Self() != a.Root) {
		ctx.StateChange("joining")
		_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
		ctx.TimerResched("join_retry", 2000*time.Millisecond)
		return
	}
	ctx.StateChange("joined")
}

// transition12 implements: any recv family [locking write;]
func (a *Agent) transition12(ctx *core.Context, ev *core.MsgEvent, m *msgFamily) {
	if !(ctx.Neighbors("papa").Contains(ev.From)) {
		return
	}
	a.Grandpa = m.Grandparent
	a.Brothers = append(a.Brothers[:0], m.Siblings...)
	if slices.Contains(m.RootPath, ctx.Self()) {
		ctx.Neighbors("papa").Clear()
		ctx.StateChange("joining")
		_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
		ctx.TimerResched("join_retry", 2000*time.Millisecond)
		return
	}
	a.RootPath = append(a.RootPath[:0], m.RootPath...)
	a.RootPath = core.ListPrepend(a.RootPath, ctx.Self())
	for _, k := range ctx.Neighbors("kids").Addrs() {
		a.Sibs = a.Sibs[:0]
		for _, o := range ctx.Neighbors("kids").Addrs() {
			if o != k {
				a.Sibs = core.ListAppend(a.Sibs, o)
			}
		}
		_ = ctx.Send(k, core.Put(&a.io.tx.Family, msgFamily{Grandparent: core.NeighborFirst(ctx, "papa"), Siblings: a.Sibs, RootPath: a.RootPath}), overlay.PriorityDefault)
	}
}

// transition13 implements: !(init|joining) recv mdata [locking read;]
func (a *Agent) transition13(ctx *core.Context, ev *core.MsgEvent, m *msgMdata) {
	if m.Inc > a.CurInc {
		a.CurInc = m.Inc
		a.CurHigh = 0
	} else {
		if m.Inc != a.CurInc {
			return
		}
	}
	if core.KeyRead(a.Heard, m.Seq).Live && (core.KeyRead(a.Heard, m.Seq).Inc == m.Inc) {
		return
	}
	core.KeyEntry(&a.Heard, m.Seq).Live = true
	core.KeyEntry(&a.Heard, m.Seq).Inc = m.Inc
	if m.Seq > a.CurHigh {
		a.CurHigh = m.Seq
	}
	if int32(len(a.Heard)) > 4096 {
		for _, s := range core.Keys(a.Heard) {
			if (core.KeyRead(a.Heard, s).Inc != a.CurInc) || ((s + 2048) < a.CurHigh) {
				delete(a.Heard, s)
			}
		}
	}
	a.Backlog = core.LogAppend(a.Backlog, msgMdata{Src: m.Src, Inc: m.Inc, Seq: m.Seq, Typ: m.Typ, Payload: append([]byte(nil), m.Payload...)}, 64)
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

// transition14 implements: (joined) timer probe_requester [locking write;]
func (a *Agent) transition14(ctx *core.Context) {
	var next int64 = core.Spread(ctx, 10000)
	_ = next
	for _, k := range ctx.Neighbors("kids").Addrs() {
		a.Sibs = a.Sibs[:0]
		for _, o := range ctx.Neighbors("kids").Addrs() {
			if o != k {
				a.Sibs = core.ListAppend(a.Sibs, o)
			}
		}
		_ = ctx.Send(k, core.Put(&a.io.tx.Family, msgFamily{Grandparent: core.NeighborFirst(ctx, "papa"), Siblings: a.Sibs, RootPath: a.RootPath}), overlay.PriorityDefault)
	}
	a.Awaiting = 0
	if (a.Grandpa != overlay.NilAddress) && (a.Grandpa != ctx.Self()) {
		a.Awaiting = 1
	}
	for _, b := range a.Brothers {
		if b != ctx.Self() {
			a.Awaiting = (a.Awaiting + 1)
		}
	}
	if a.Awaiting == 0 {
		ctx.TimerResched("probe_requester", time.Duration(next))
		return
	}
	clear(a.Cands)
	ctx.StateChange("probed")
	if (a.Grandpa != overlay.NilAddress) && (a.Grandpa != ctx.Self()) {
		_ = ctx.Send(a.Grandpa, core.Put(&a.io.tx.ProbeRequest, msgProbeRequest{Count: 10}), overlay.PriorityDefault)
	}
	for _, b := range a.Brothers {
		if b != ctx.Self() {
			_ = ctx.Send(b, core.Put(&a.io.tx.ProbeRequest, msgProbeRequest{Count: 10}), overlay.PriorityDefault)
		}
	}
	ctx.TimerResched("probe_timeout", 5000*time.Millisecond)
	ctx.TimerResched("probe_requester", time.Duration(next))
}

// transition15 implements: (probing) timer keep_probing [locking read;]
func (a *Agent) transition15(ctx *core.Context) {
	if a.ProbesToSend > 0 {
		a.ProbesToSend = (a.ProbesToSend - 1)
		_ = ctx.Send(a.ProbedNode, core.Put(&a.io.tx.Probe, msgProbe{Idx: ((10 - a.ProbesToSend) - 1), Total: 10, Pad: make([]byte, 1000)}), overlay.PriorityDefault)
		if a.ProbesToSend > 0 {
			ctx.TimerResched("keep_probing", 20*time.Millisecond)
		} else {
			_ = ctx.Send(a.ProbedNode, core.Put(&a.io.tx.ProbeReply, msgProbeReply{Sent: 10, RootPath: a.RootPath}), overlay.PriorityDefault)
			ctx.StateChange("joined")
		}
	}
}

// transition16 implements: (probed) timer probe_timeout [locking write;]
func (a *Agent) transition16(ctx *core.Context) {
	a.Awaiting = 0
	var best overlay.Address = overlay.NilAddress
	_ = best
	var best_bw float64 = 0
	_ = best_bw
	for _, c := range core.Keys(a.Cands) {
		if (core.KeyRead(a.Cands, c).Bw > best_bw) && !(slices.Contains(core.KeyRead(a.Cands, c).Path, ctx.Self())) {
			best = c
			best_bw = core.KeyRead(a.Cands, c).Bw
		}
	}
	if ((int32(ctx.Neighbors("papa").Size()) > 0) && (best != overlay.NilAddress)) && (best != core.NeighborFirst(ctx, "papa")) {
		var parent_bw float64 = a.PapaBw
		_ = parent_bw
		if core.KeyRead(a.Cands, core.NeighborFirst(ctx, "papa")).Bw > 0 {
			parent_bw = core.KeyRead(a.Cands, core.NeighborFirst(ctx, "papa")).Bw
			a.PapaBw = parent_bw
		}
		if (parent_bw == 0) || (best_bw > (parent_bw * 1.2)) {
			a.Moves = (a.Moves + 1)
			ctx.StateChange("joining")
			_ = ctx.Send(best, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
			ctx.TimerResched("join_retry", 2000*time.Millisecond)
			return
		}
	}
	if (int32(ctx.Neighbors("papa").Size()) == 0) && (ctx.Self() != a.Root) {
		ctx.StateChange("joining")
		_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
		ctx.TimerResched("join_retry", 2000*time.Millisecond)
		return
	}
	ctx.StateChange("joined")
}

// transition17 implements: (joining) timer join_retry [locking write;]
func (a *Agent) transition17(ctx *core.Context) {
	_ = ctx.Send(a.Root, core.Put(&a.io.tx.Join, msgJoin{}), overlay.PriorityDefault)
	ctx.TimerResched("join_retry", 2000*time.Millisecond)
}
