// Code generated by "macedon gen" from specs/bullet.mac. DO NOT EDIT.

// Package bullet is the generated MACEDON agent for protocol "bullet".
package bullet

import (
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

type msgTblock struct {
	Inc     int64
	Seq     int32
	Typ     int32
	Payload []byte
}

func (m *msgTblock) MsgName() string { return "tblock" }

func (m *msgTblock) Encode(w *overlay.Writer) {
	w.I64(m.Inc)
	w.I32(m.Seq)
	w.I32(m.Typ)
	w.Bytes32(m.Payload)
}

func (m *msgTblock) Decode(r *overlay.Reader) error {
	m.Inc = r.I64()
	m.Seq = r.I32()
	m.Typ = r.I32()
	m.Payload = r.Bytes32()
	return r.Err()
}

type msgCollect struct {
	Cands []core.Ticket
}

func (m *msgCollect) MsgName() string { return "collect" }

func (m *msgCollect) Encode(w *overlay.Writer) {
	core.WriteTickets(w, m.Cands)
}

func (m *msgCollect) Decode(r *overlay.Reader) error {
	m.Cands = core.ReadTickets(r, m.Cands)
	return r.Err()
}

type msgDist struct {
	Cands []core.Ticket
}

func (m *msgDist) MsgName() string { return "dist" }

func (m *msgDist) Encode(w *overlay.Writer) {
	core.WriteTickets(w, m.Cands)
}

func (m *msgDist) Decode(r *overlay.Reader) error {
	m.Cands = core.ReadTickets(r, m.Cands)
	return r.Err()
}

type msgPeerReq struct{}

func (m *msgPeerReq) MsgName() string { return "peer_req" }

func (m *msgPeerReq) Encode(*overlay.Writer) {}

func (m *msgPeerReq) Decode(r *overlay.Reader) error { return r.Err() }

type msgPeerResp struct {
	Accept bool
}

func (m *msgPeerResp) MsgName() string { return "peer_resp" }

func (m *msgPeerResp) Encode(w *overlay.Writer) {
	w.Bool(m.Accept)
}

func (m *msgPeerResp) Decode(r *overlay.Reader) error {
	m.Accept = r.Bool()
	return r.Err()
}

type msgHave struct {
	Summary []byte
	Incs    []int64
}

func (m *msgHave) MsgName() string { return "have" }

func (m *msgHave) Encode(w *overlay.Writer) {
	w.Bytes32(m.Summary)
	w.I64s(m.Incs)
}

func (m *msgHave) Decode(r *overlay.Reader) error {
	m.Summary = r.Bytes32()
	m.Incs = r.AppendI64s(m.Incs[:0])
	return r.Err()
}

type msgBlockReq struct {
	Inc  int64
	Seqs []int32
}

func (m *msgBlockReq) MsgName() string { return "block_req" }

func (m *msgBlockReq) Encode(w *overlay.Writer) {
	w.I64(m.Inc)
	w.I32s(m.Seqs)
}

func (m *msgBlockReq) Decode(r *overlay.Reader) error {
	m.Inc = r.I64()
	m.Seqs = r.AppendI32s(m.Seqs[:0])
	return r.Err()
}

type msgBlockData struct {
	Inc     int64
	Seq     int32
	Typ     int32
	Payload []byte
}

func (m *msgBlockData) MsgName() string { return "block_data" }

func (m *msgBlockData) Encode(w *overlay.Writer) {
	w.I64(m.Inc)
	w.I32(m.Seq)
	w.I32(m.Typ)
	w.Bytes32(m.Payload)
}

func (m *msgBlockData) Decode(r *overlay.Reader) error {
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
	Tblock    msgTblock
	Collect   msgCollect
	Dist      msgDist
	PeerReq   msgPeerReq
	PeerResp  msgPeerResp
	Have      msgHave
	BlockReq  msgBlockReq
	BlockData msgBlockData
}

// StateCopyOpaque keeps the scratch out of checkpoint images: between events
// it is garbage, and a copied slot would pin the payload it last saw.
func (*msgScratch) StateCopyOpaque() {}

// PeersEntry is one record of the keytable peers.
type PeersEntry struct {
	Seen int64
}

// Agent is the generated protocol instance.
type Agent struct {
	Root       bool
	Parent     overlay.Address
	Children   []overlay.Address
	Inc        int64
	NextSeq    int32
	Held       core.Blocks
	Candidates []core.Ticket
	Peers      map[overlay.Address]*PeersEntry
	Want       []int32
	FromTree   int32
	FromMesh   int32
	MaxPeers   int32

	io msgScratch // a named field: embedding would promote StateCopyOpaque to Agent
}

// New returns a factory for generated bullet agents.
func New() core.Factory {
	return func() core.Agent { return &Agent{} }
}

// ProtocolName implements the engine's naming hook.
func (a *Agent) ProtocolName() string { return "bullet" }

// DefinedByType makes the agent core.TypeDefined: Define reads no agent and
// no transition keeps ev.Msg, so one Def serves every instance.
func (*Agent) DefinedByType() {}

// SetParam sets the int auxiliary variable name to v, reporting whether
// the spec declares one: how a scenario's params reach the agent.
func (a *Agent) SetParam(name string, v int32) bool {
	switch name {
	case "next_seq":
		a.NextSeq = v
	case "from_tree":
		a.FromTree = v
	case "from_mesh":
		a.FromMesh = v
	case "max_peers":
		a.MaxPeers = v
	default:
		return false
	}
	return true
}

// Define declares the generated FSM.
func (*Agent) Define(d *core.Def) {
	d.States("running")
	d.Addressing(core.IPAddressing)
	d.Message("tblock", func() overlay.Message { return &msgTblock{} }, "")
	d.Message("collect", func() overlay.Message { return &msgCollect{} }, "")
	d.Message("dist", func() overlay.Message { return &msgDist{} }, "")
	d.Message("peer_req", func() overlay.Message { return &msgPeerReq{} }, "")
	d.Message("peer_resp", func() overlay.Message { return &msgPeerResp{} }, "")
	d.Message("have", func() overlay.Message { return &msgHave{} }, "")
	d.Message("block_req", func() overlay.Message { return &msgBlockReq{} }, "")
	d.Message("block_data", func() overlay.Message { return &msgBlockData{} }, "")
	d.PeriodicTimer("epoch", 3000*time.Millisecond)
	d.PeriodicTimer("haves", 1000*time.Millisecond)
	d.OnAPI(overlay.APIInit, core.In("init"), core.Write, core.APIOf((*Agent).transition0))
	d.OnAPI(overlay.APINotify, core.Any, core.Write, core.APIOf((*Agent).transition1))
	d.OnAPI(overlay.APIMulticast, core.In("running"), core.Read, core.APIOf((*Agent).transition2))
	d.OnRecv("tblock", core.In("running"), core.Write, core.RecvOf((*Agent).transition3))
	d.OnTimer("epoch", core.In("running"), core.Write, core.TimerOf((*Agent).transition4))
	d.OnForward("collect", core.In("running"), core.Write, core.RecvOf((*Agent).transition5))
	d.OnRecv("collect", core.In("running"), core.Write, core.RecvOf((*Agent).transition6))
	d.OnRecv("dist", core.In("running"), core.Write, core.RecvOf((*Agent).transition7))
	d.OnRecv("peer_req", core.In("running"), core.Write, core.RecvOf((*Agent).transition8))
	d.OnRecv("peer_resp", core.In("running"), core.Write, core.RecvOf((*Agent).transition9))
	d.OnTimer("haves", core.In("running"), core.Write, core.TimerOf((*Agent).transition10))
	d.OnRecv("have", core.In("running"), core.Write, core.RecvOf((*Agent).transition11))
	d.OnRecv("block_req", core.In("running"), core.Read, core.RecvOf((*Agent).transition12))
	d.OnRecv("block_data", core.In("running"), core.Write, core.RecvOf((*Agent).transition13))
}

// transition0 implements: (init) API init [locking write;]
func (a *Agent) transition0(ctx *core.Context, call *core.APICall) {
	a.Root = ((call.Bootstrap == ctx.Self()) || (call.Bootstrap == overlay.NilAddress))
	a.Inc = ctx.Now().UnixNano()
	if a.MaxPeers == 0 {
		a.MaxPeers = 4
	}
	core.BlockReset(&a.Held, 2048, 3)
	ctx.StateChange("running")
	ctx.TimerSched("epoch", time.Duration(core.Spread(ctx, 3000)))
	ctx.TimerSched("haves", time.Duration(core.Spread(ctx, 1000)))
}

// transition1 implements: any API notify [locking write;]
func (a *Agent) transition1(ctx *core.Context, call *core.APICall) {
	if call.NbrType == overlay.NbrTypeChild {
		a.Children = append(a.Children[:0], call.Neighbors...)
	}
	if (call.NbrType == overlay.NbrTypeParent) && (int32(len(call.Neighbors)) > 0) {
		a.Parent = core.ListGet(call.Neighbors, 0)
	}
}

// transition2 implements: (running) API multicast [locking read;]
func (a *Agent) transition2(ctx *core.Context, call *core.APICall) {
	var seq int32 = a.NextSeq
	_ = seq
	a.NextSeq = (a.NextSeq + 1)
	if core.BlockPut(&a.Held, a.Inc, seq, call.PayloadType, call.Payload) && !(a.Root) {
		ctx.Deliver(call.Payload, call.PayloadType, ctx.Self())
	}
	if int32(len(a.Children)) > 0 {
		_ = ctx.Send(core.ListGet(a.Children, (seq%int32(len(a.Children)))), core.Put(&a.io.tx.Tblock, msgTblock{Inc: a.Inc, Seq: seq, Typ: call.PayloadType, Payload: call.Payload}), int(call.Priority))
	}
}

// transition3 implements: (running) recv tblock [locking write;]
func (a *Agent) transition3(ctx *core.Context, ev *core.MsgEvent, m *msgTblock) {
	if core.BlockPut(&a.Held, m.Inc, m.Seq, m.Typ, m.Payload) {
		a.FromTree = (a.FromTree + 1)
		if !(a.Root) {
			ctx.Deliver(m.Payload, m.Typ, ctx.Self())
		}
		for _, k := range a.Children {
			if k != ev.From {
				_ = ctx.Send(k, core.Put(&a.io.tx.Tblock, msgTblock{Inc: m.Inc, Seq: m.Seq, Typ: m.Typ, Payload: m.Payload}), overlay.PriorityDefault)
			}
		}
	}
}

// transition4 implements: (running) timer epoch [locking write;]
func (a *Agent) transition4(ctx *core.Context) {
	if !(a.Root) && (int32(len(a.Children)) == 0) {
		_ = core.CollectMsg(ctx, 0, core.Put(&a.io.tx.Collect, msgCollect{Cands: core.TicketOf(ctx.Self(), core.BlockSummary(&a.Held))}))
	}
}

// transition5 implements: (running) forward collect [locking write;]
func (a *Agent) transition5(ctx *core.Context, ev *core.MsgEvent, m *msgCollect) {
	m.Cands = core.TicketAdd(m.Cands, ctx.Self(), core.BlockSummary(&a.Held))
	m.Cands = core.Sample(ctx, m.Cands, 8)
}

// transition6 implements: (running) recv collect [locking write;]
func (a *Agent) transition6(ctx *core.Context, ev *core.MsgEvent, m *msgCollect) {
	if a.Root {
		a.Candidates = core.TicketMerge(a.Candidates, m.Cands)
		a.Candidates = core.Sample(ctx, a.Candidates, (2 * 8))
		for _, k := range a.Children {
			_ = ctx.Send(k, core.Put(&a.io.tx.Dist, msgDist{Cands: a.Candidates}), overlay.PriorityDefault)
		}
	}
}

// transition7 implements: (running) recv dist [locking write;]
func (a *Agent) transition7(ctx *core.Context, ev *core.MsgEvent, m *msgDist) {
	core.TicketsCopy(&a.Candidates, m.Cands)
	if int32(len(a.Peers)) < a.MaxPeers {
		var best overlay.Address = overlay.NilAddress
		_ = best
		var best_score float64 = -1
		_ = best_score
		for i := range int32(len(a.Candidates)) {
			var c overlay.Address = core.TicketNode(a.Candidates, i)
			_ = c
			if ((c != ctx.Self()) && (core.KeyRead(a.Peers, c).Seen == 0)) && (c != a.Parent) {
				var score float64 = core.BlockDisjoint(&a.Held, core.TicketSummary(a.Candidates, i))
				_ = score
				if score > best_score {
					best = c
					best_score = score
				}
			}
		}
		if best != overlay.NilAddress {
			_ = ctx.Send(best, core.Put(&a.io.tx.PeerReq, msgPeerReq{}), overlay.PriorityDefault)
		}
	}
	m.Cands = core.Sample(ctx, m.Cands, 8)
	for _, k := range a.Children {
		_ = ctx.Send(k, core.Put(&a.io.tx.Dist, msgDist{Cands: m.Cands}), overlay.PriorityDefault)
	}
}

// transition8 implements: (running) recv peer_req [locking write;]
func (a *Agent) transition8(ctx *core.Context, ev *core.MsgEvent, m *msgPeerReq) {
	var accept bool = (int32(len(a.Peers)) < (2 * a.MaxPeers))
	_ = accept
	if accept {
		core.KeyEntry(&a.Peers, ev.From).Seen = ctx.Now().UnixNano()
	}
	_ = ctx.Send(ev.From, core.Put(&a.io.tx.PeerResp, msgPeerResp{Accept: accept}), overlay.PriorityDefault)
}

// transition9 implements: (running) recv peer_resp [locking write;]
func (a *Agent) transition9(ctx *core.Context, ev *core.MsgEvent, m *msgPeerResp) {
	if m.Accept && (int32(len(a.Peers)) < (2 * a.MaxPeers)) {
		core.KeyEntry(&a.Peers, ev.From).Seen = ctx.Now().UnixNano()
	}
}

// transition10 implements: (running) timer haves [locking write;]
func (a *Agent) transition10(ctx *core.Context) {
	for _, p := range core.Keys(a.Peers) {
		if (ctx.Now().UnixNano() - core.KeyRead(a.Peers, p).Seen) >= ((4 * 1000) * 1000000) {
			delete(a.Peers, p)
		}
	}
	for _, p := range core.Keys(a.Peers) {
		_ = ctx.Send(p, core.Put(&a.io.tx.Have, msgHave{Summary: core.BlockSummary(&a.Held), Incs: core.BlockIncs(&a.Held)}), overlay.PriorityDefault)
	}
}

// transition11 implements: (running) recv have [locking write;]
func (a *Agent) transition11(ctx *core.Context, ev *core.MsgEvent, m *msgHave) {
	if core.KeyRead(a.Peers, ev.From).Seen > 0 {
		core.KeyEntry(&a.Peers, ev.From).Seen = ctx.Now().UnixNano()
	}
	var budget int32 = 32
	_ = budget
	for _, i := range core.BlockStreams(&a.Held, m.Incs) {
		a.Want = append(a.Want[:0], core.BlockMissing(&a.Held, m.Summary, i, budget, 64)...)
		budget = (budget - int32(len(a.Want)))
		if int32(len(a.Want)) > 0 {
			_ = ctx.Send(ev.From, core.Put(&a.io.tx.BlockReq, msgBlockReq{Inc: i, Seqs: a.Want}), overlay.PriorityDefault)
		}
	}
}

// transition12 implements: (running) recv block_req [locking read;]
func (a *Agent) transition12(ctx *core.Context, ev *core.MsgEvent, m *msgBlockReq) {
	for _, s := range m.Seqs {
		if core.BlockHas(&a.Held, m.Inc, s) {
			_ = ctx.Send(ev.From, core.Put(&a.io.tx.BlockData, msgBlockData{Inc: m.Inc, Seq: s, Typ: core.BlockTyp(&a.Held, m.Inc, s), Payload: core.BlockPayload(&a.Held, m.Inc, s)}), overlay.PriorityDefault)
		}
	}
}

// transition13 implements: (running) recv block_data [locking write;]
func (a *Agent) transition13(ctx *core.Context, ev *core.MsgEvent, m *msgBlockData) {
	if core.KeyRead(a.Peers, ev.From).Seen > 0 {
		core.KeyEntry(&a.Peers, ev.From).Seen = ctx.Now().UnixNano()
	}
	if core.BlockPut(&a.Held, m.Inc, m.Seq, m.Typ, m.Payload) {
		a.FromMesh = (a.FromMesh + 1)
		if !(a.Root) {
			ctx.Deliver(m.Payload, m.Typ, ctx.Self())
		}
	}
}
