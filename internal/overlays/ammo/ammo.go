// Package ammo implements AMMO [21] — Adaptive Multi-Metric Overlays — as a
// MACEDON agent, the system the paper says MACEDON's design process guided.
// AMMO maintains a degree-bounded multicast tree and continuously re-optimizes
// each node's choice of parent against a configurable cost function over
// multiple network metrics (here latency and bandwidth, the two the paper's
// overlays trade off). Candidates come from the node's tree relatives; every
// probe carries the candidate's root path so adaptation never creates cycles.
package ammo

import (
	"slices"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

// Params tunes the protocol and the cost function.
type Params struct {
	// WeightLatency scales the RTT term (cost per millisecond).
	WeightLatency float64
	// WeightBandwidth scales the inverse-bandwidth term (cost per inverse
	// Mbps). Setting one weight to zero yields a single-metric overlay.
	WeightBandwidth float64
	// SwitchGain is the relative cost improvement required to move
	// (default 1.2: 20% better).
	SwitchGain float64
	// EvalPeriod is the re-evaluation cadence (default 8 s).
	EvalPeriod time.Duration
	// MaxDegree bounds children (default 4).
	MaxDegree int
}

func (p *Params) setDefaults() {
	if p.WeightLatency == 0 && p.WeightBandwidth == 0 {
		p.WeightLatency = 1
	}
	if p.SwitchGain <= 1 {
		p.SwitchGain = 1.2
	}
	if p.EvalPeriod <= 0 {
		p.EvalPeriod = 8 * time.Second
	}
	if p.MaxDegree <= 0 {
		p.MaxDegree = 4
	}
}

// New returns a factory for AMMO agents.
func New(p Params) core.Factory {
	p.setDefaults()
	return func() core.Agent { return &Protocol{p: p} }
}

// --- messages ----------------------------------------------------------------

type joinMsg struct{}

func (m *joinMsg) MsgName() string                { return "join" }
func (m *joinMsg) Encode(*overlay.Writer)         {}
func (m *joinMsg) Decode(r *overlay.Reader) error { return r.Err() }

type joinReply struct {
	Accept   bool
	Redirect overlay.Address
	RootPath []overlay.Address // receiver's path to the root, receiver first
	Family   []overlay.Address // receiver's parent + other children
}

func (m *joinReply) MsgName() string { return "join_reply" }
func (m *joinReply) Encode(w *overlay.Writer) {
	w.Bool(m.Accept)
	w.Addr(m.Redirect)
	w.Addrs(m.RootPath)
	w.Addrs(m.Family)
}
func (m *joinReply) Decode(r *overlay.Reader) error {
	m.Accept = r.Bool()
	m.Redirect = r.Addr()
	m.RootPath = r.Addrs()
	m.Family = r.Addrs()
	return r.Err()
}

type leaveMsg struct{}

func (m *leaveMsg) MsgName() string                { return "leave" }
func (m *leaveMsg) Encode(*overlay.Writer)         {}
func (m *leaveMsg) Decode(r *overlay.Reader) error { return r.Err() }

type pathUpdate struct {
	RootPath []overlay.Address
	Family   []overlay.Address
}

func (m *pathUpdate) MsgName() string { return "path_update" }
func (m *pathUpdate) Encode(w *overlay.Writer) {
	w.Addrs(m.RootPath)
	w.Addrs(m.Family)
}
func (m *pathUpdate) Decode(r *overlay.Reader) error {
	m.RootPath = r.Addrs()
	m.Family = r.Addrs()
	return r.Err()
}

type probeReq struct {
	Nonce uint32
}

func (m *probeReq) MsgName() string                { return "probe_req" }
func (m *probeReq) Encode(w *overlay.Writer)       { w.U32(m.Nonce) }
func (m *probeReq) Decode(r *overlay.Reader) error { m.Nonce = r.U32(); return r.Err() }

type probeResp struct {
	Nonce     uint32
	RootPath  []overlay.Address
	Children  uint16
	Capacity  uint16
	Bandwidth float64 // candidate's own access-bandwidth estimate, bps
}

func (m *probeResp) MsgName() string { return "probe_resp" }
func (m *probeResp) Encode(w *overlay.Writer) {
	w.U32(m.Nonce)
	w.Addrs(m.RootPath)
	w.U16(m.Children)
	w.U16(m.Capacity)
	w.F64(m.Bandwidth)
}
func (m *probeResp) Decode(r *overlay.Reader) error {
	m.Nonce = r.U32()
	m.RootPath = r.Addrs()
	m.Children = r.U16()
	m.Capacity = r.U16()
	m.Bandwidth = r.F64()
	return r.Err()
}

type mdata struct {
	Src     overlay.Address
	Inc     uint64 // source incarnation stamp: restarts reset Seq, not Inc order
	Seq     uint32
	Typ     int32
	Payload []byte
}

func (m *mdata) MsgName() string { return "mdata" }
func (m *mdata) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.U64(m.Inc)
	w.U32(m.Seq)
	w.U32(uint32(m.Typ))
	w.Bytes32(m.Payload)
}
func (m *mdata) Decode(r *overlay.Reader) error {
	m.Src = r.Addr()
	m.Inc = r.U64()
	m.Seq = r.U32()
	m.Typ = int32(r.U32())
	m.Payload = r.Bytes32()
	return r.Err()
}

// pktKey identifies one multicast packet across source restarts: a revived
// source's Seq counter restarts at zero, and without the incarnation stamp
// its fresh stream would be deduplicated against its dead predecessor's —
// the class the kill/revive churn audit flushes out (same fix as NICE and
// Overcast in PR 2).
type pktKey struct {
	src overlay.Address
	inc uint64
	seq uint32
}

// --- protocol ------------------------------------------------------------------

type probeState struct {
	to overlay.Address
	at time.Time
}

type candidateInfo struct {
	rtt       time.Duration
	bandwidth float64
	rootPath  []overlay.Address
	full      bool
}

// Protocol is one node's AMMO instance.
type Protocol struct {
	p Params

	self overlay.Address
	root overlay.Address

	rootPath []overlay.Address // self first, root last
	family   []overlay.Address // grandparent + siblings (candidates)

	probes    map[uint32]probeState
	nextNonce uint32
	pending   map[overlay.Address]*candidateInfo
	awaiting  int

	parentCost float64
	moves      uint64

	inc     uint64 // incarnation stamp carried on our own mdata
	nextSeq uint32
	seen    map[pktKey]bool
}

// ProtocolName implements the engine's naming hook.
func (a *Protocol) ProtocolName() string { return "ammo" }

// Moves counts adaptations (for the ablation benches).
func (a *Protocol) Moves() uint64 { return a.moves }

// RootPath returns this node's current path to the root.
func (a *Protocol) RootPath() []overlay.Address {
	return append([]overlay.Address(nil), a.rootPath...)
}

// Define declares the AMMO FSM: the Go equivalent of ammo.mac.
func (a *Protocol) Define(d *core.Def) {
	d.States("joining", "joined")
	d.Addressing(core.IPAddressing)

	d.UDPTransport("CTRL")
	d.TCPTransport("DATA")

	d.Message("join", func() overlay.Message { return &joinMsg{} }, "CTRL")
	d.Message("join_reply", func() overlay.Message { return &joinReply{} }, "CTRL")
	d.Message("leave", func() overlay.Message { return &leaveMsg{} }, "CTRL")
	d.Message("path_update", func() overlay.Message { return &pathUpdate{} }, "CTRL")
	d.Message("probe_req", func() overlay.Message { return &probeReq{} }, "CTRL")
	d.Message("probe_resp", func() overlay.Message { return &probeResp{} }, "CTRL")
	d.Message("mdata", func() overlay.Message { return &mdata{} }, "DATA")

	d.PeriodicTimer("eval", a.p.EvalPeriod)
	d.Timer("probe_deadline", 3*time.Second)
	d.Timer("join_retry", 5*time.Second)
	d.NeighborList("parent", 1, true)
	d.NeighborList("kids", a.p.MaxDegree, true)

	d.OnAPI(overlay.APIInit, core.In(core.StateInit), core.Write, a.apiInit)
	d.OnAPI(overlay.APIMulticast, core.In("joined"), core.Read, a.apiMulticast)
	d.OnAPI(overlay.APIError, core.Any, core.Write, a.apiError)

	d.OnRecv("join", core.In("joined"), core.Write, a.recvJoin)
	d.OnRecv("join_reply", core.In("joining"), core.Write, a.recvJoinReply)
	d.OnRecv("leave", core.Any, core.Write, a.recvLeave)
	d.OnRecv("path_update", core.Any, core.Write, a.recvPathUpdate)
	d.OnRecv("probe_req", core.Any, core.Read, a.recvProbeReq)
	d.OnRecv("probe_resp", core.Any, core.Write, a.recvProbeResp)
	d.OnRecv("mdata", core.Not(core.In(core.StateInit)), core.Read, a.recvMdata)

	d.OnTimer("eval", core.In("joined"), core.Write, a.onEval)
	d.OnTimer("probe_deadline", core.In("joined"), core.Write, a.onProbeDeadline)
	d.OnTimer("join_retry", core.In("joining"), core.Write, a.onJoinRetry)
}

// onJoinRetry fires while still joining: a join (or its reply) was lost —
// the root may have been down when we asked. Fall back to the root, the one
// address every member knows, and keep trying; without this an orphan whose
// join raced the root's outage stays detached forever.
func (a *Protocol) onJoinRetry(ctx *core.Context) {
	_ = ctx.Send(a.root, &joinMsg{}, overlay.PriorityDefault)
	ctx.TimerResched("join_retry", 5*time.Second)
}

func (a *Protocol) apiInit(ctx *core.Context, call *core.APICall) {
	a.self = ctx.Self()
	a.root = call.Bootstrap
	// Incarnation stamp: the full virtual-nanosecond clock reading, strictly
	// later at any later event, so a restarted source never repeats one.
	a.inc = uint64(ctx.Now().UnixNano())
	a.probes = make(map[uint32]probeState)
	a.pending = make(map[overlay.Address]*candidateInfo)
	a.seen = make(map[pktKey]bool)
	if a.root == a.self || a.root == overlay.NilAddress {
		a.rootPath = []overlay.Address{a.self}
		ctx.StateChange("joined")
		ctx.TimerSched("eval", a.jitter(ctx, a.p.EvalPeriod))
		return
	}
	ctx.StateChange("joining")
	_ = ctx.Send(a.root, &joinMsg{}, overlay.PriorityDefault)
	ctx.TimerResched("join_retry", 5*time.Second)
}

func (a *Protocol) jitter(ctx *core.Context, d time.Duration) time.Duration {
	return d*3/4 + time.Duration(ctx.Rand().Int63n(int64(d)/2+1))
}

func (a *Protocol) familyOf(exclude overlay.Address) []overlay.Address {
	var fam []overlay.Address
	if p := a.parentAddr(); p != overlay.NilAddress {
		fam = append(fam, p)
	}
	return fam
}

func (a *Protocol) parentAddr() overlay.Address {
	if len(a.rootPath) > 1 {
		return a.rootPath[1]
	}
	return overlay.NilAddress
}

func (a *Protocol) recvJoin(ctx *core.Context, ev *core.MsgEvent) {
	kids := ctx.Neighbors("kids")
	if !kids.Contains(ev.From) && kids.Full() {
		child := kids.Random(ctx.Rand())
		_ = ctx.Send(ev.From, &joinReply{Redirect: child.Addr}, overlay.PriorityDefault)
		return
	}
	kids.Add(ev.From)
	fam := a.familyOf(ev.From)
	for _, k := range kids.Addrs() {
		if k != ev.From {
			fam = append(fam, k)
		}
	}
	_ = ctx.Send(ev.From, &joinReply{Accept: true, RootPath: a.rootPath, Family: fam}, overlay.PriorityDefault)
	ctx.NotifyNeighbors(overlay.NbrTypeChild, kids.Addrs())
}

func (a *Protocol) recvJoinReply(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*joinReply)
	if !m.Accept {
		target := m.Redirect
		if target == overlay.NilAddress || target == a.self {
			target = a.root
		}
		_ = ctx.Send(target, &joinMsg{}, overlay.PriorityDefault)
		return
	}
	parent := ctx.Neighbors("parent")
	if old := parent.First(); old != nil && old.Addr != ev.From {
		_ = ctx.Send(old.Addr, &leaveMsg{}, overlay.PriorityDefault)
	}
	parent.Clear()
	parent.Add(ev.From)
	a.rootPath = append([]overlay.Address{a.self}, m.RootPath...)
	a.family = m.Family
	a.parentCost = 0 // re-measured on the next eval
	ctx.TimerCancel("join_retry")
	ctx.StateChange("joined")
	ctx.TimerSched("eval", a.jitter(ctx, a.p.EvalPeriod))
	ctx.NotifyNeighbors(overlay.NbrTypeParent, []overlay.Address{ev.From})
	a.pushPathUpdates(ctx)
}

// pushPathUpdates refreshes children's root paths after ours changed.
func (a *Protocol) pushPathUpdates(ctx *core.Context) {
	kids := ctx.Neighbors("kids")
	for _, k := range kids.Addrs() {
		fam := a.familyOf(k)
		for _, other := range kids.Addrs() {
			if other != k {
				fam = append(fam, other)
			}
		}
		_ = ctx.Send(k, &pathUpdate{RootPath: a.rootPath, Family: fam}, overlay.PriorityDefault)
	}
}

func (a *Protocol) recvPathUpdate(ctx *core.Context, ev *core.MsgEvent) {
	if !ctx.Neighbors("parent").Contains(ev.From) {
		return
	}
	m := ev.Msg.(*pathUpdate)
	a.rootPath = append([]overlay.Address{a.self}, m.RootPath...)
	a.family = m.Family
	a.pushPathUpdates(ctx)
}

func (a *Protocol) recvLeave(ctx *core.Context, ev *core.MsgEvent) {
	kids := ctx.Neighbors("kids")
	kids.Remove(ev.From)
	ctx.NotifyNeighbors(overlay.NbrTypeChild, kids.Addrs())
}

func (a *Protocol) apiError(ctx *core.Context, call *core.APICall) {
	parent := ctx.Neighbors("parent")
	if parent.Size() == 0 && ctx.State() == "joined" && a.self != a.root {
		ctx.StateChange("joining")
		_ = ctx.Send(a.root, &joinMsg{}, overlay.PriorityDefault)
		ctx.TimerResched("join_retry", 5*time.Second)
	}
	ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
}

// --- adaptation ---------------------------------------------------------------

func (a *Protocol) onEval(ctx *core.Context) {
	if a.self == a.root || len(a.family) == 0 {
		return
	}
	// Probe the parent (to refresh its cost) and every family candidate.
	a.pending = make(map[overlay.Address]*candidateInfo)
	targets := append([]overlay.Address{}, a.family...)
	if p := a.parentAddr(); p != overlay.NilAddress && !slices.Contains(targets, p) {
		targets = append(targets, p)
	}
	a.awaiting = len(targets)
	for _, t := range targets {
		if t == a.self {
			a.awaiting--
			continue
		}
		a.nextNonce++
		a.probes[a.nextNonce] = probeState{to: t, at: ctx.Now()}
		_ = ctx.Send(t, &probeReq{Nonce: a.nextNonce}, overlay.PriorityDefault)
	}
	if a.awaiting > 0 {
		ctx.TimerResched("probe_deadline", 3*time.Second)
	}
}

func (a *Protocol) recvProbeReq(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*probeReq)
	kids := ctx.Neighbors("kids")
	_ = ctx.Send(ev.From, &probeResp{
		Nonce:     m.Nonce,
		RootPath:  a.rootPath,
		Children:  uint16(kids.Size()),
		Capacity:  uint16(a.p.MaxDegree),
		Bandwidth: 10e6, // homogeneous access estimate; refined by probes in Overcast-style trains
	}, overlay.PriorityDefault)
}

func (a *Protocol) recvProbeResp(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*probeResp)
	ps, ok := a.probes[m.Nonce]
	if !ok {
		return
	}
	delete(a.probes, m.Nonce)
	rtt := ctx.Now().Sub(ps.at)
	// Effective bandwidth divides the candidate's access estimate across
	// its occupied degree: a loaded parent is a worse parent.
	bw := m.Bandwidth / float64(int(m.Children)+1)
	a.pending[ps.to] = &candidateInfo{
		rtt:       rtt,
		bandwidth: bw,
		rootPath:  m.RootPath,
		full:      int(m.Children) >= int(m.Capacity),
	}
	a.awaiting--
	if a.awaiting <= 0 {
		ctx.TimerCancel("probe_deadline")
		a.decide(ctx)
	}
}

func (a *Protocol) onProbeDeadline(ctx *core.Context) {
	a.awaiting = 0
	a.decide(ctx)
}

// cost is the AMMO multi-metric objective.
func (a *Protocol) cost(ci *candidateInfo) float64 {
	lat := float64(ci.rtt.Microseconds()) / 1000.0 // ms
	invBw := 0.0
	if ci.bandwidth > 0 {
		invBw = 1e6 / ci.bandwidth // inverse Mbps
	}
	return a.p.WeightLatency*lat + a.p.WeightBandwidth*invBw
}

func (a *Protocol) decide(ctx *core.Context) {
	parent := a.parentAddr()
	if pi, ok := a.pending[parent]; ok {
		a.parentCost = a.cost(pi)
	}
	var best overlay.Address
	bestCost := 0.0
	for addr, ci := range a.pending {
		if addr == parent || ci.full {
			continue
		}
		// Cycle guard: never adopt a parent whose root path includes us.
		if slices.Contains(ci.rootPath, a.self) {
			continue
		}
		c := a.cost(ci)
		if best == overlay.NilAddress || c < bestCost {
			best, bestCost = addr, c
		}
	}
	if best == overlay.NilAddress || a.parentCost == 0 {
		return
	}
	if bestCost*a.p.SwitchGain < a.parentCost {
		a.moves++
		ctx.StateChange("joining")
		_ = ctx.Send(best, &joinMsg{}, overlay.PriorityDefault)
		ctx.TimerResched("join_retry", 5*time.Second)
	}
}

// --- data path ------------------------------------------------------------------

func (a *Protocol) apiMulticast(ctx *core.Context, call *core.APICall) {
	a.nextSeq++
	m := &mdata{Src: a.self, Inc: a.inc, Seq: a.nextSeq, Typ: call.PayloadType, Payload: call.Payload}
	a.disseminate(ctx, m, overlay.NilAddress, call.Priority)
}

func (a *Protocol) disseminate(ctx *core.Context, m *mdata, except overlay.Address, pri int) {
	for _, kid := range ctx.Neighbors("kids").Addrs() {
		if kid == except {
			continue
		}
		ok, next, payload := ctx.Forward(m.Payload, m.Typ, kid, overlay.HashAddress(kid))
		if !ok {
			continue
		}
		_ = ctx.Send(next, &mdata{Src: m.Src, Inc: m.Inc, Seq: m.Seq, Typ: m.Typ, Payload: payload}, pri)
	}
	if m.Src != a.self {
		ctx.Deliver(m.Payload, m.Typ, m.Src)
	}
}

func (a *Protocol) recvMdata(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*mdata)
	key := pktKey{src: m.Src, inc: m.Inc, seq: m.Seq}
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	if len(a.seen) > 8192 {
		a.seen = map[pktKey]bool{key: true} // coarse window reset
	}
	a.disseminate(ctx, m, ev.From, overlay.PriorityDefault)
}
