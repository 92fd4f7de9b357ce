// Code generated by "macedon gen" from specs/nice.mac. DO NOT EDIT.

// Package nice is the generated MACEDON agent for protocol "nice".
package nice

import (
	"slices"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

type msgQuery struct {
	Layer int32
}

func (m *msgQuery) MsgName() string { return "query" }

func (m *msgQuery) Encode(w *overlay.Writer) {
	w.U8(uint8(m.Layer))
}

func (m *msgQuery) Decode(r *overlay.Reader) error {
	m.Layer = int32(int8(r.U8()))
	return r.Err()
}

type msgQueryResp struct {
	Layer   int32
	Leader  overlay.Address
	Members []overlay.Address
}

func (m *msgQueryResp) MsgName() string { return "query_resp" }

func (m *msgQueryResp) Encode(w *overlay.Writer) {
	w.U8(uint8(m.Layer))
	w.Addr(m.Leader)
	w.Addrs(m.Members)
}

func (m *msgQueryResp) Decode(r *overlay.Reader) error {
	m.Layer = int32(int8(r.U8()))
	m.Leader = r.Addr()
	m.Members = r.AppendAddrs(m.Members[:0])
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
	Nonce int32
}

func (m *msgProbeResp) MsgName() string { return "probe_resp" }

func (m *msgProbeResp) Encode(w *overlay.Writer) {
	w.I32(m.Nonce)
}

func (m *msgProbeResp) Decode(r *overlay.Reader) error {
	m.Nonce = r.I32()
	return r.Err()
}

type msgJoinCluster struct {
	Layer int32
}

func (m *msgJoinCluster) MsgName() string { return "join_cluster" }

func (m *msgJoinCluster) Encode(w *overlay.Writer) {
	w.U8(uint8(m.Layer))
}

func (m *msgJoinCluster) Decode(r *overlay.Reader) error {
	m.Layer = int32(int8(r.U8()))
	return r.Err()
}

type msgClusterUpdate struct {
	Layer        int32
	Leader       overlay.Address
	ParentLeader overlay.Address
	Members      []overlay.Address
}

func (m *msgClusterUpdate) MsgName() string { return "cluster_update" }

func (m *msgClusterUpdate) Encode(w *overlay.Writer) {
	w.U8(uint8(m.Layer))
	w.Addr(m.Leader)
	w.Addr(m.ParentLeader)
	w.Addrs(m.Members)
}

func (m *msgClusterUpdate) Decode(r *overlay.Reader) error {
	m.Layer = int32(int8(r.U8()))
	m.Leader = r.Addr()
	m.ParentLeader = r.Addr()
	m.Members = r.AppendAddrs(m.Members[:0])
	return r.Err()
}

type msgHb struct {
	Layer int32
	Addrs []overlay.Address
	Dists []int64
}

func (m *msgHb) MsgName() string { return "hb" }

func (m *msgHb) Encode(w *overlay.Writer) {
	w.U8(uint8(m.Layer))
	w.Addrs(m.Addrs)
	w.I64s(m.Dists)
}

func (m *msgHb) Decode(r *overlay.Reader) error {
	m.Layer = int32(int8(r.U8()))
	m.Addrs = r.AppendAddrs(m.Addrs[:0])
	m.Dists = r.AppendI64s(m.Dists[:0])
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
	Query         msgQuery
	QueryResp     msgQueryResp
	ProbeReq      msgProbeReq
	ProbeResp     msgProbeResp
	JoinCluster   msgJoinCluster
	ClusterUpdate msgClusterUpdate
	Hb            msgHb
	Mdata         msgMdata
}

// StateCopyOpaque keeps the scratch out of checkpoint images: between events
// it is garbage, and a copied slot would pin the payload it last saw.
func (*msgScratch) StateCopyOpaque() {}

// ProbesEntry is one record of the keytable probes.
type ProbesEntry struct {
	To overlay.Address
	At int64
}

// Agent is the generated protocol instance.
type Agent struct {
	Rp           overlay.Address
	Layers       core.Clusters
	Probes       map[int32]*ProbesEntry
	NextNonce    int32
	DescendLayer int32
	Redirects    int32
	Candidates   []overlay.Address
	ProbesLeft   int32
	BestCand     overlay.Address
	BestDist     int64
	Inc          int64
	NextSeq      int32
	Seen         core.Dedup

	io msgScratch // a named field: embedding would promote StateCopyOpaque to Agent
}

// New returns a factory for generated nice agents.
func New() core.Factory {
	return func() core.Agent { return &Agent{} }
}

// ProtocolName implements the engine's naming hook.
func (a *Agent) ProtocolName() string { return "nice" }

// DefinedByType makes the agent core.TypeDefined: Define reads no agent and
// no transition keeps ev.Msg, so one Def serves every instance.
func (*Agent) DefinedByType() {}

// SetParam sets the int auxiliary variable name to v, reporting whether
// the spec declares one: how a scenario's params reach the agent.
func (a *Agent) SetParam(name string, v int32) bool {
	switch name {
	case "next_nonce":
		a.NextNonce = v
	case "descend_layer":
		a.DescendLayer = v
	case "redirects":
		a.Redirects = v
	case "probes_left":
		a.ProbesLeft = v
	case "next_seq":
		a.NextSeq = v
	default:
		return false
	}
	return true
}

// Define declares the generated FSM.
func (*Agent) Define(d *core.Def) {
	d.States("joining", "joined")
	d.Addressing(core.IPAddressing)
	d.UDPTransport("CTRL")
	d.TCPTransport("DATA")
	d.Message("query", func() overlay.Message { return &msgQuery{} }, "CTRL")
	d.Message("query_resp", func() overlay.Message { return &msgQueryResp{} }, "CTRL")
	d.Message("probe_req", func() overlay.Message { return &msgProbeReq{} }, "CTRL")
	d.Message("probe_resp", func() overlay.Message { return &msgProbeResp{} }, "CTRL")
	d.Message("join_cluster", func() overlay.Message { return &msgJoinCluster{} }, "CTRL")
	d.Message("cluster_update", func() overlay.Message { return &msgClusterUpdate{} }, "CTRL")
	d.Message("hb", func() overlay.Message { return &msgHb{} }, "CTRL")
	d.Message("mdata", func() overlay.Message { return &msgMdata{} }, "DATA")
	d.PeriodicTimer("hb", 2000*time.Millisecond)
	d.PeriodicTimer("refine", 5000*time.Millisecond)
	d.Timer("join_retry", 5000*time.Millisecond)
	d.OnAPI(overlay.APIInit, core.In("init"), core.Write, core.APIOf((*Agent).transition0))
	d.OnTimer("join_retry", core.In("joining"), core.Write, core.TimerOf((*Agent).transition1))
	d.OnRecv("query", core.Any, core.Read, core.RecvOf((*Agent).transition2))
	d.OnRecv("query_resp", core.In("joining"), core.Write, core.RecvOf((*Agent).transition3))
	d.OnRecv("probe_req", core.Any, core.Read, core.RecvOf((*Agent).transition4))
	d.OnRecv("probe_resp", core.Any, core.Write, core.RecvOf((*Agent).transition5))
	d.OnRecv("join_cluster", core.In("joined"), core.Write, core.RecvOf((*Agent).transition6))
	d.OnRecv("cluster_update", core.Any, core.Write, core.RecvOf((*Agent).transition7))
	d.OnTimer("hb", core.In("joined"), core.Write, core.TimerOf((*Agent).transition8))
	d.OnRecv("hb", core.Any, core.Write, core.RecvOf((*Agent).transition9))
	d.OnTimer("refine", core.In("joined"), core.Write, core.TimerOf((*Agent).transition10))
	d.OnAPI(overlay.APIMulticast, core.In("joined"), core.Read, core.APIOf((*Agent).transition11))
	d.OnRecv("mdata", core.In("joined"), core.Read, core.RecvOf((*Agent).transition12))
}

// transition0 implements: (init) API init [locking write;]
func (a *Agent) transition0(ctx *core.Context, call *core.APICall) {
	a.Rp = call.Bootstrap
	a.Inc = ctx.Now().UnixNano()
	if (a.Rp == ctx.Self()) || (a.Rp == overlay.NilAddress) {
		core.ClusterFound(ctx, &a.Layers)
		ctx.StateChange("joined")
		ctx.TimerSched("hb", time.Duration(core.Spread(ctx, 2000)))
		ctx.TimerSched("refine", time.Duration(core.Spread(ctx, 5000)))
	} else {
		ctx.StateChange("joining")
		a.DescendLayer = -1
		a.Redirects = 0
		_ = ctx.Send(a.Rp, core.Put(&a.io.tx.Query, msgQuery{Layer: -1}), overlay.PriorityDefault)
		ctx.TimerSched("join_retry", 0)
	}
}

// transition1 implements: (joining) timer join_retry [locking write;]
func (a *Agent) transition1(ctx *core.Context) {
	a.DescendLayer = -1
	a.Redirects = 0
	_ = ctx.Send(a.Rp, core.Put(&a.io.tx.Query, msgQuery{Layer: -1}), overlay.PriorityDefault)
	ctx.TimerSched("join_retry", 5000*time.Millisecond)
}

// transition2 implements: any recv query [locking read;]
func (a *Agent) transition2(ctx *core.Context, ev *core.MsgEvent, m *msgQuery) {
	var l int32 = m.Layer
	_ = l
	if l < 0 {
		l = (a.Layers.Len() - 1)
		if ((l >= 0) && (a.Layers.Leader(l) != ctx.Self())) && (a.Layers.Leader(l) != overlay.NilAddress) {
			_ = ctx.Send(ev.From, core.Put(&a.io.tx.QueryResp, msgQueryResp{Layer: -1, Leader: a.Layers.Leader(l)}), overlay.PriorityDefault)
			return
		}
	}
	if (l < 0) || (l >= a.Layers.Len()) {
		l = 0
	}
	if a.Layers.Len() == 0 {
		return
	}
	_ = ctx.Send(ev.From, core.Put(&a.io.tx.QueryResp, msgQueryResp{Layer: l, Leader: a.Layers.Leader(l), Members: a.Layers.Members(l)}), overlay.PriorityDefault)
}

// transition3 implements: (joining) recv query_resp [locking write;]
func (a *Agent) transition3(ctx *core.Context, ev *core.MsgEvent, m *msgQueryResp) {
	if m.Layer < 0 {
		if ((a.Redirects < 24) && (m.Leader != ctx.Self())) && (m.Leader != overlay.NilAddress) {
			a.Redirects = (a.Redirects + 1)
			_ = ctx.Send(m.Leader, core.Put(&a.io.tx.Query, msgQuery{Layer: -1}), overlay.PriorityDefault)
		}
		return
	}
	a.DescendLayer = m.Layer
	a.Candidates = a.Candidates[:0]
	for _, x := range m.Members {
		if x != ctx.Self() {
			a.Candidates = core.ListAppend(a.Candidates, x)
		}
	}
	if int32(len(a.Candidates)) == 0 {
		_ = ctx.Send(ev.From, core.Put(&a.io.tx.JoinCluster, msgJoinCluster{Layer: 0}), overlay.PriorityDefault)
		return
	}
	a.ProbesLeft = int32(len(a.Candidates))
	a.BestCand = overlay.NilAddress
	a.BestDist = 9223372036854775807
	for _, x := range a.Candidates {
		a.NextNonce = (a.NextNonce + 1)
		core.KeyEntry(&a.Probes, a.NextNonce).To = x
		core.KeyEntry(&a.Probes, a.NextNonce).At = ctx.Now().UnixNano()
		_ = ctx.Send(x, core.Put(&a.io.tx.ProbeReq, msgProbeReq{Nonce: a.NextNonce}), overlay.PriorityDefault)
	}
}

// transition4 implements: any recv probe_req [locking read;]
func (a *Agent) transition4(ctx *core.Context, ev *core.MsgEvent, m *msgProbeReq) {
	_ = ctx.Send(ev.From, core.Put(&a.io.tx.ProbeResp, msgProbeResp{Nonce: m.Nonce}), overlay.PriorityDefault)
}

// transition5 implements: any recv probe_resp [locking write;]
func (a *Agent) transition5(ctx *core.Context, ev *core.MsgEvent, m *msgProbeResp) {
	var to overlay.Address = core.KeyRead(a.Probes, m.Nonce).To
	_ = to
	if to == overlay.NilAddress {
		return
	}
	var rtt int64 = (ctx.Now().UnixNano() - core.KeyRead(a.Probes, m.Nonce).At)
	_ = rtt
	delete(a.Probes, m.Nonce)
	core.DistSet(&a.Layers, to, rtt)
	if !(ctx.State() == "joining") || !(slices.Contains(a.Candidates, to)) {
		return
	}
	if rtt < a.BestDist {
		a.BestCand = to
		a.BestDist = rtt
	}
	a.ProbesLeft = (a.ProbesLeft - 1)
	if (a.ProbesLeft == 0) && (a.BestCand != overlay.NilAddress) {
		if a.DescendLayer <= 0 {
			_ = ctx.Send(a.BestCand, core.Put(&a.io.tx.JoinCluster, msgJoinCluster{Layer: 0}), overlay.PriorityDefault)
		} else {
			_ = ctx.Send(a.BestCand, core.Put(&a.io.tx.Query, msgQuery{Layer: (a.DescendLayer - 1)}), overlay.PriorityDefault)
		}
	}
}

// transition6 implements: (joined) recv join_cluster [locking write;]
func (a *Agent) transition6(ctx *core.Context, ev *core.MsgEvent, m *msgJoinCluster) {
	if (m.Layer >= 0) && (m.Layer <= 24) {
		core.ClusterHeard(&a.Layers, ev.From, ctx.Now().UnixNano())
		core.ClusterAdmit(ctx, &a.Layers, &a.io.tx.ClusterUpdate, ev.From, m.Layer)
	}
}

// transition7 implements: any recv cluster_update [locking write;]
func (a *Agent) transition7(ctx *core.Context, ev *core.MsgEvent, m *msgClusterUpdate) {
	var l int32 = m.Layer
	_ = l
	if !(slices.Contains(m.Members, ctx.Self())) {
		if ctx.State() == "joining" {
			_ = ctx.Send(m.Leader, core.Put(&a.io.tx.JoinCluster, msgJoinCluster{Layer: 0}), overlay.PriorityDefault)
		} else {
			if ((l >= 0) && (l < a.Layers.Len())) && (a.Layers.Leader(l) == m.Leader) {
				_ = ctx.Send(m.Leader, core.Put(&a.io.tx.JoinCluster, msgJoinCluster{Layer: l}), overlay.PriorityDefault)
			}
		}
		return
	}
	if ((l < 0) || (l > 24)) || (l > a.Layers.Len()) {
		return
	}
	if l == a.Layers.Len() {
		if (l > 0) && (a.Layers.Leader((l - 1)) != ctx.Self()) {
			return
		}
		if (ev.From != m.Leader) && (m.Leader != ctx.Self()) {
			_ = ctx.Send(m.Leader, core.Put(&a.io.tx.JoinCluster, msgJoinCluster{Layer: l}), overlay.PriorityDefault)
			return
		}
	}
	var was_leader bool = (a.Layers.Leader(l) == ctx.Self())
	_ = was_leader
	core.ClusterInstall(ctx, &a.Layers, l, m.Leader, m.ParentLeader, m.Members, ctx.Now().UnixNano())
	if ctx.State() == "joining" {
		ctx.StateChange("joined")
		ctx.TimerSched("hb", time.Duration(core.Spread(ctx, 2000)))
		ctx.TimerSched("refine", time.Duration(core.Spread(ctx, 5000)))
		ctx.TimerCancel("join_retry")
	}
	if (m.Leader == ctx.Self()) && !(was_leader) {
		var up overlay.Address = a.Layers.Parent(l)
		_ = up
		if (up == overlay.NilAddress) || (up == ctx.Self()) {
			up = a.Rp
		}
		if (up != overlay.NilAddress) && (up != ctx.Self()) {
			_ = ctx.Send(up, core.Put(&a.io.tx.JoinCluster, msgJoinCluster{Layer: (l + 1)}), overlay.PriorityDefault)
		}
	} else {
		if (m.Leader != ctx.Self()) && was_leader {
			core.ClusterLeave(ctx, &a.Layers, &a.io.tx.ClusterUpdate, (l + 1), m.Leader)
		}
	}
}

// transition8 implements: (joined) timer hb [locking write;]
func (a *Agent) transition8(ctx *core.Context) {
	for l := range a.Layers.Len() {
		for _, x := range a.Layers.Members(l) {
			if x != ctx.Self() {
				_ = ctx.Send(x, core.Put(&a.io.tx.Hb, msgHb{Layer: l, Addrs: a.Layers.DistAddrs(), Dists: a.Layers.DistValues()}), overlay.PriorityDefault)
				if !(a.Layers.Known(x)) {
					a.NextNonce = (a.NextNonce + 1)
					core.KeyEntry(&a.Probes, a.NextNonce).To = x
					core.KeyEntry(&a.Probes, a.NextNonce).At = ctx.Now().UnixNano()
					_ = ctx.Send(x, core.Put(&a.io.tx.ProbeReq, msgProbeReq{Nonce: a.NextNonce}), overlay.PriorityDefault)
				}
			}
		}
		if a.Layers.Leader(l) == ctx.Self() {
			core.ClusterAnnounce(ctx, &a.Layers, &a.io.tx.ClusterUpdate, l)
		} else {
			if a.Layers.Leader(l) != overlay.NilAddress {
				_ = ctx.Send(a.Layers.Leader(l), core.Put(&a.io.tx.JoinCluster, msgJoinCluster{Layer: l}), overlay.PriorityDefault)
			}
		}
	}
}

// transition9 implements: any recv hb [locking write;]
func (a *Agent) transition9(ctx *core.Context, ev *core.MsgEvent, m *msgHb) {
	core.ClusterHeard(&a.Layers, ev.From, ctx.Now().UnixNano())
	core.DistRow(&a.Layers, ev.From, m.Addrs, m.Dists)
}

// transition10 implements: (joined) timer refine [locking write;]
func (a *Agent) transition10(ctx *core.Context) {
	if ((ctx.Self() != a.Rp) && (a.Layers.Len() > 0)) && (int32(len(a.Layers.Members(0))) <= 1) {
		ctx.StateChange("joining")
		core.ClusterLeave(ctx, &a.Layers, &a.io.tx.ClusterUpdate, 0, overlay.NilAddress)
		a.DescendLayer = -1
		a.Redirects = 0
		_ = ctx.Send(a.Rp, core.Put(&a.io.tx.Query, msgQuery{Layer: -1}), overlay.PriorityDefault)
		ctx.TimerSched("join_retry", 5000*time.Millisecond)
		return
	}
	var demoted bool = false
	_ = demoted
	for l := range a.Layers.Len() - 1 {
		if !(demoted) && (a.Layers.Leader(l) != ctx.Self()) {
			core.ClusterLeave(ctx, &a.Layers, &a.io.tx.ClusterUpdate, (l + 1), a.Layers.Leader(l))
			demoted = true
		}
	}
	var top int32 = (a.Layers.Len() - 1)
	_ = top
	if (top >= 0) && (a.Layers.Leader(top) == ctx.Self()) {
		var target overlay.Address = a.Layers.Parent(top)
		_ = target
		if (target == overlay.NilAddress) || (target == ctx.Self()) {
			target = a.Rp
		}
		if (target != ctx.Self()) && (target != overlay.NilAddress) {
			_ = ctx.Send(target, core.Put(&a.io.tx.JoinCluster, msgJoinCluster{Layer: (top + 1)}), overlay.PriorityDefault)
		}
	}
	core.ClusterExpire(ctx, &a.Layers, &a.io.tx.ClusterUpdate, ctx.Now().UnixNano(), 15000)
	for l := range int32((24 + 1)) {
		if (l < a.Layers.Len()) && (a.Layers.Leader(l) == ctx.Self()) {
			var size int32 = int32(len(a.Layers.Members(l)))
			_ = size
			if size > ((3 * 3) - 1) {
				if core.ClusterMapped(ctx, &a.Layers, l) {
					core.ClusterSplit(ctx, &a.Layers, &a.io.tx.ClusterUpdate, l, 3)
				}
			} else {
				if (size < 3) && ((l + 1) < a.Layers.Len()) {
					var into overlay.Address = core.ClusterMerge(ctx, &a.Layers, &a.io.tx.ClusterUpdate, l)
					_ = into
					if into != overlay.NilAddress {
						_ = ctx.Send(into, core.Put(&a.io.tx.JoinCluster, msgJoinCluster{Layer: l}), overlay.PriorityDefault)
					}
				} else {
					var c overlay.Address = core.ClusterCenter(ctx, &a.Layers, l)
					_ = c
					if (c != ctx.Self()) && (c != overlay.NilAddress) {
						core.ClusterElect(&a.Layers, l, c)
						core.ClusterAnnounce(ctx, &a.Layers, &a.io.tx.ClusterUpdate, l)
						core.ClusterLeave(ctx, &a.Layers, &a.io.tx.ClusterUpdate, (l + 1), c)
					}
				}
			}
		}
	}
}

// transition11 implements: (joined) API multicast [locking read;]
func (a *Agent) transition11(ctx *core.Context, call *core.APICall) {
	a.NextSeq = (a.NextSeq + 1)
	for _, x := range core.ClusterFanout(ctx, &a.Layers, -1, ctx.Self()) {
		_ = ctx.Send(x, core.Put(&a.io.tx.Mdata, msgMdata{Src: ctx.Self(), Inc: a.Inc, Seq: a.NextSeq, Typ: call.PayloadType, Payload: call.Payload}), int(call.Priority))
	}
}

// transition12 implements: (joined) recv mdata [locking read;]
func (a *Agent) transition12(ctx *core.Context, ev *core.MsgEvent, m *msgMdata) {
	if core.DedupAdd(&a.Seen, m.Src, m.Inc, m.Seq, 8192) {
		ctx.Deliver(m.Payload, m.Typ, m.Src)
		for _, x := range core.ClusterFanout(ctx, &a.Layers, a.Layers.Of(ev.From), m.Src) {
			_ = ctx.Send(x, core.Put(&a.io.tx.Mdata, msgMdata{Src: m.Src, Inc: m.Inc, Seq: m.Seq, Typ: m.Typ, Payload: m.Payload}), overlay.PriorityDefault)
		}
	}
}
