// Package splitstream implements SplitStream [6] as a MACEDON agent layered
// on Scribe: the stream is striped across k Scribe trees whose group keys
// differ in their first routing digit, so prefix routing gives each stripe a
// different root and (largely) interior-node-disjoint trees. Forwarding load
// spreads across members instead of concentrating at interior nodes of one
// tree. The capacity bound that makes this work is Scribe's pushdown
// (Params.MaxChildren there), exactly the "small change to Scribe" §4.1
// describes.
package splitstream

import (
	"macedon/internal/core"
	"macedon/internal/overlay"
)

// Params tunes the protocol.
type Params struct {
	// Stripes is the number of Scribe trees the stream is split across
	// (default 16, one per first hex digit).
	Stripes int
}

func (p *Params) setDefaults() {
	if p.Stripes <= 0 {
		p.Stripes = 16
	}
}

// New returns a factory for SplitStream agents.
func New(p Params) core.Factory {
	p.setDefaults()
	return func() core.Agent { return &Protocol{p: p} }
}

// StripeKey derives stripe i's group key: the group key with its first
// base-16 digit replaced, following the SplitStream stripe-id construction.
func StripeKey(group overlay.Key, i int) overlay.Key {
	return group.WithDigit(0, 4, i&0xf)
}

// block is the striped payload unit.
type block struct {
	Group   overlay.Key
	Seq     uint32
	Typ     int32
	Payload []byte
}

func (m *block) MsgName() string { return "block" }
func (m *block) Encode(w *overlay.Writer) {
	w.Key(m.Group)
	w.U32(m.Seq)
	w.U32(uint32(m.Typ))
	w.Bytes32(m.Payload)
}
func (m *block) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	m.Seq = r.U32()
	m.Typ = int32(r.U32())
	m.Payload = r.Bytes32()
	return r.Err()
}

// Protocol is one node's SplitStream instance.
type Protocol struct {
	p Params

	self    overlay.Address
	nextSeq map[overlay.Key]uint32

	blocksDelivered uint64
	bytesDelivered  uint64
}

// ProtocolName implements the engine's naming hook.
func (ss *Protocol) ProtocolName() string { return "splitstream" }

// BlocksDelivered counts blocks handed to the application here.
func (ss *Protocol) BlocksDelivered() uint64 { return ss.blocksDelivered }

// BytesDelivered counts payload bytes handed to the application here.
func (ss *Protocol) BytesDelivered() uint64 { return ss.bytesDelivered }

// Stripes returns the stripe count.
func (ss *Protocol) Stripes() int { return ss.p.Stripes }

// Define declares the SplitStream FSM: the Go equivalent of
// splitstream.mac ("protocol splitstream uses scribe").
func (ss *Protocol) Define(d *core.Def) {
	d.States("running")
	d.Addressing(core.HashAddressing)
	d.Message("block", func() overlay.Message { return &block{} }, "")

	d.OnAPI(overlay.APIInit, core.In(core.StateInit), core.Write, ss.apiInit)
	d.OnAPI(overlay.APICreateGroup, core.Any, core.Write, ss.apiCreateGroup)
	d.OnAPI(overlay.APIJoin, core.Any, core.Write, ss.apiJoin)
	d.OnAPI(overlay.APILeave, core.Any, core.Write, ss.apiLeave)
	d.OnAPI(overlay.APIMulticast, core.Any, core.Read, ss.apiMulticast)
	d.OnAPI(overlay.APIRoute, core.Any, core.Read, ss.apiRoute)
	d.OnAPI(overlay.APIRouteIP, core.Any, core.Read, ss.apiRouteIP)
	d.OnRecv("block", core.Any, core.Write, ss.recvBlock)
}

func (ss *Protocol) apiInit(ctx *core.Context, call *core.APICall) {
	ss.self = ctx.Self()
	ss.nextSeq = make(map[overlay.Key]uint32)
	ctx.StateChange("running")
}

func (ss *Protocol) apiCreateGroup(ctx *core.Context, call *core.APICall) {
	for i := 0; i < ss.p.Stripes; i++ {
		_ = ctx.CreateGroup(StripeKey(call.Group, i))
	}
}

// apiJoin subscribes to every stripe tree: a SplitStream receiver joins the
// forest, not one tree.
func (ss *Protocol) apiJoin(ctx *core.Context, call *core.APICall) {
	for i := 0; i < ss.p.Stripes; i++ {
		_ = ctx.JoinGroup(StripeKey(call.Group, i))
	}
}

func (ss *Protocol) apiLeave(ctx *core.Context, call *core.APICall) {
	for i := 0; i < ss.p.Stripes; i++ {
		_ = ctx.LeaveGroup(StripeKey(call.Group, i))
	}
}

// apiMulticast stripes blocks across the forest round-robin.
func (ss *Protocol) apiMulticast(ctx *core.Context, call *core.APICall) {
	seq := ss.nextSeq[call.Group]
	ss.nextSeq[call.Group] = seq + 1
	stripe := int(seq) % ss.p.Stripes
	b := &block{Group: call.Group, Seq: seq, Typ: call.PayloadType, Payload: call.Payload}
	frame, err := ctx.EncodeFrame(b)
	if err != nil {
		return
	}
	_ = ctx.Multicast(StripeKey(call.Group, stripe), frame, core.ProtocolPayload, call.Priority)
}

func (ss *Protocol) recvBlock(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*block)
	ss.blocksDelivered++
	ss.bytesDelivered += uint64(len(m.Payload))
	ctx.Deliver(m.Payload, m.Typ, ev.From)
}

func (ss *Protocol) apiRoute(ctx *core.Context, call *core.APICall) {
	_ = ctx.Route(call.Dest, call.Payload, call.PayloadType, call.Priority)
}

func (ss *Protocol) apiRouteIP(ctx *core.Context, call *core.APICall) {
	_ = ctx.RouteIP(call.DestIP, call.Payload, call.PayloadType, call.Priority)
}
