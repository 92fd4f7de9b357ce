// Code generated by "macedon gen" from specs/splitstream.mac. DO NOT EDIT.

// Package splitstream is the generated MACEDON agent for protocol "splitstream".
package splitstream

import (
	"macedon/internal/core"
	"macedon/internal/overlay"
)

type msgBlock struct {
	Group   overlay.Key
	Seq     int32
	Typ     int32
	Payload []byte
}

func (m *msgBlock) MsgName() string { return "block" }

func (m *msgBlock) Encode(w *overlay.Writer) {
	w.Key(m.Group)
	w.I32(m.Seq)
	w.I32(m.Typ)
	w.Bytes32(m.Payload)
}

func (m *msgBlock) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
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
	Block msgBlock
}

// StateCopyOpaque keeps the scratch out of checkpoint images: between events
// it is garbage, and a copied slot would pin the payload it last saw.
func (*msgScratch) StateCopyOpaque() {}

// SessionsEntry is one record of the keytable sessions.
type SessionsEntry struct {
	Seq int32
}

// Agent is the generated protocol instance.
type Agent struct {
	Sessions map[overlay.Key]*SessionsEntry
	Stripes  int32

	io msgScratch // a named field: embedding would promote StateCopyOpaque to Agent
}

// New returns a factory for generated splitstream agents.
func New() core.Factory {
	return func() core.Agent { return &Agent{} }
}

// ProtocolName implements the engine's naming hook.
func (a *Agent) ProtocolName() string { return "splitstream" }

// DefinedByType makes the agent core.TypeDefined: Define reads no agent and
// no transition keeps ev.Msg, so one Def serves every instance.
func (*Agent) DefinedByType() {}

// SetParam sets the int auxiliary variable name to v, reporting whether
// the spec declares one: how a scenario's params reach the agent.
func (a *Agent) SetParam(name string, v int32) bool {
	switch name {
	case "stripes":
		a.Stripes = v
	default:
		return false
	}
	return true
}

// Define declares the generated FSM.
func (*Agent) Define(d *core.Def) {
	d.States("running")
	d.Addressing(core.HashAddressing)
	d.Message("block", func() overlay.Message { return &msgBlock{} }, "")
	d.OnAPI(overlay.APIInit, core.In("init"), core.Write, core.APIOf((*Agent).transition0))
	d.OnAPI(overlay.APICreateGroup, core.Any, core.Write, core.APIOf((*Agent).transition1))
	d.OnAPI(overlay.APIJoin, core.Any, core.Write, core.APIOf((*Agent).transition2))
	d.OnAPI(overlay.APILeave, core.Any, core.Write, core.APIOf((*Agent).transition3))
	d.OnAPI(overlay.APIMulticast, core.Any, core.Write, core.APIOf((*Agent).transition4))
	d.OnRecv("block", core.Any, core.Write, core.RecvOf((*Agent).transition5))
	d.OnAPI(overlay.APIRoute, core.Any, core.Write, core.APIOf((*Agent).transition6))
	d.OnAPI(overlay.APIRouteIP, core.Any, core.Write, core.APIOf((*Agent).transition7))
}

// transition0 implements: (init) API init [locking write;]
func (a *Agent) transition0(ctx *core.Context, call *core.APICall) {
	if a.Stripes == 0 {
		a.Stripes = 16
	}
	ctx.StateChange("running")
}

// transition1 implements: any API create_group [locking write;]
func (a *Agent) transition1(ctx *core.Context, call *core.APICall) {
	for i := range a.Stripes {
		_ = ctx.CreateGroup((call.Group).WithDigit(0, 4, int(i)))
	}
}

// transition2 implements: any API join [locking write;]
func (a *Agent) transition2(ctx *core.Context, call *core.APICall) {
	for i := range a.Stripes {
		_ = ctx.JoinGroup((call.Group).WithDigit(0, 4, int(i)))
	}
}

// transition3 implements: any API leave [locking write;]
func (a *Agent) transition3(ctx *core.Context, call *core.APICall) {
	for i := range a.Stripes {
		_ = ctx.LeaveGroup((call.Group).WithDigit(0, 4, int(i)))
	}
}

// transition4 implements: any API multicast [locking write;]
func (a *Agent) transition4(ctx *core.Context, call *core.APICall) {
	var seq int32 = core.KeyRead(a.Sessions, call.Group).Seq
	_ = seq
	core.KeyEntry(&a.Sessions, call.Group).Seq = (seq + 1)
	_ = core.MulticastMsg(ctx, (call.Group).WithDigit(0, 4, int((seq%a.Stripes))), core.Put(&a.io.tx.Block, msgBlock{Group: call.Group, Seq: seq, Typ: call.PayloadType, Payload: call.Payload}))
}

// transition5 implements: any recv block [locking write;]
func (a *Agent) transition5(ctx *core.Context, ev *core.MsgEvent, m *msgBlock) {
	ctx.Deliver(m.Payload, m.Typ, ev.From)
}

// transition6 implements: any API route [locking write;]
func (a *Agent) transition6(ctx *core.Context, call *core.APICall) {
	_ = ctx.Route(call.Dest, call.Payload, call.PayloadType, call.Priority)
}

// transition7 implements: any API routeIP [locking write;]
func (a *Agent) transition7(ctx *core.Context, call *core.APICall) {
	_ = ctx.RouteIP(call.DestIP, call.Payload, call.PayloadType, call.Priority)
}
