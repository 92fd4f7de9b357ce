package core

import (
	"fmt"
	"math/rand"
	"time"

	"macedon/internal/overlay"
)

// ProtocolPayload is the payload type tag reserved for layered protocol
// messages: when layer i+1 sends one of its own messages through layer i,
// the payload travels with this tag and is demultiplexed into the upper
// layer's transition table on arrival. Application payload types are >= 0.
const ProtocolPayload int32 = -1

// APICall carries the arguments of an API transition: one struct for every
// call in Figure 3, plus the engine-driven error and notify events. Handlers
// may set Return, which propagates back to the caller. The engine recycles
// the record once the transition returns: a handler keeps what it needs from
// the fields (Payload and Neighbors are the caller's and stay valid), never
// the *APICall itself.
type APICall struct {
	Kind overlay.API

	Bootstrap overlay.Address // init: the well-known bootstrap node
	Group     overlay.Key     // create_group / join / leave / multicast / anycast / collect
	Dest      overlay.Key     // route
	DestIP    overlay.Address // routeIP

	Payload     []byte
	PayloadType int32
	Priority    int

	Op  int // upcall_ext / downcall_ext operation code
	Arg any

	NbrType   overlay.NeighborType // notify
	Neighbors []overlay.Address    // notify

	Failed overlay.Address // error: the peer the failure detector declared dead

	Return int
}

// MsgEvent carries a message transition's event data. For forward
// transitions the handler may rewrite NextHop (redirect), mutate Msg (the
// engine re-encodes it), or set Quash to drop the message (§2.2). Like the
// Context it arrives with, a *MsgEvent is valid for that one transition: the
// instance reuses the record. A TypeDefined agent's Msg is the instance's
// receive slot for its type, reused by the next frame of that type, so it
// must not be kept; any other agent's Msg may be. Either way its byte-string
// fields alias the received frame and are valid until the event chain that
// decoded them ends: clone to keep. Nothing may write into them.
type MsgEvent struct {
	Msg  overlay.Message
	From overlay.Address // immediate sender (recv) or original source (layered)

	// Forward-transition fields.
	NextHop overlay.Address
	NextKey overlay.Key
	Quash   bool
}

// Handlers is the application's upcall registration: the
// macedon_register_handlers() of Figure 3. Any field may be nil.
type Handlers struct {
	// Forward is invoked at intermediate hops of application payloads; the
	// return value false quashes the message.
	Forward func(payload []byte, typ int32, next overlay.Address, nextKey overlay.Key) bool
	// Deliver is invoked when an application payload reaches this node.
	Deliver func(payload []byte, typ int32, src overlay.Address)
	// Notify is invoked when the top protocol's neighbor set changes.
	Notify func(nt overlay.NeighborType, neighbors []overlay.Address)
	// Upcall is the extensible upcall (upcall_ext) from the top protocol.
	Upcall func(op int, arg any) int

	// StateChange is a lifecycle hook for external drivers: it fires
	// whenever any instance in the stack moves to a new FSM state (joining,
	// joined, ...). Live deployment agents stream these to the controller
	// as per-node event traces. Deferred onto the node's event queue.
	StateChange func(proto string, from, to State)
	// Failure fires when the engine failure detector declares a peer dead
	// on some instance (after the error transition dispatched). It runs on
	// the node's event queue and must not call Node.Exec.
	Failure func(proto string, peer overlay.Address)
}

// Context is what a transition body sees: the action primitives of §3.3 —
// state changes, timer scheduling, message transmission, neighbor
// management, and the cross-layer upcalls/downcalls. A Context is only valid
// for the duration of the transition that received it.
type Context struct {
	inst *Instance
}

// Self returns this node's address.
func (c *Context) Self() overlay.Address { return c.inst.node.addr }

// SelfKey returns this node's hash key.
func (c *Context) SelfKey() overlay.Key { return c.inst.node.key }

// Now returns the current (virtual or wall) time.
func (c *Context) Now() time.Time { return c.inst.node.clock.Now() }

// Rand returns the node's PRNG, which the first call seeds.
func (c *Context) Rand() *rand.Rand {
	n := c.inst.node
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(n.seed))
	}
	return n.rng
}

// State returns the instance's current FSM state.
func (c *Context) State() State { return c.inst.state }

// StateChange moves the FSM to s (the state_change primitive). The state
// must have been declared.
func (c *Context) StateChange(s State) {
	i := c.inst
	if !i.def.states[s] {
		panic(fmt.Sprintf("core: %s: state_change to undeclared state %q", i.def.name, s))
	}
	if i.state == s {
		return
	}
	if i.tracing(TraceLow) {
		i.trace(TraceLow, "state %s -> %s", i.state, s)
	}
	from := i.state
	i.state = s
	if h := i.node.handlers.StateChange; h != nil {
		i.node.postFunc(func() { h(i.def.name, from, s) })
	}
}

// Neighbors returns a declared neighbor list.
func (c *Context) Neighbors(name string) *NeighborList { return c.inst.neighbors(name) }

// TimerSched schedules a declared timer to fire after d (timer_sched). A
// non-positive d uses the timer's declared period. Scheduling an already
// pending timer is a no-op; use TimerResched to replace the deadline.
func (c *Context) TimerSched(name string, d time.Duration) {
	c.inst.schedTimer(name, d, false)
}

// TimerResched replaces a timer's deadline (timer_resched).
func (c *Context) TimerResched(name string, d time.Duration) {
	c.inst.schedTimer(name, d, true)
}

// TimerCancel stops a pending timer.
func (c *Context) TimerCancel(name string) {
	ts := c.inst.timer(name)
	ts.gen++ // defeat fires already queued behind this event
	if ts.tm != nil {
		ts.tm.Stop()
		ts.tm = nil
	}
}

// Send transmits one of this protocol's messages to dst at a priority
// (PriorityDefault uses the message's declared transport). On the lowest
// layer this hits the transport subsystem directly; on higher layers the
// message is encapsulated and sent via the base layer's routeIP path, which
// is how MACEDON higher-layer messages travel (§3.1).
//
// Cross-layer calls made from inside a transition are deferred: they run
// after the current transition completes, preserving transition atomicity
// and making lock-order inversions between layers impossible.
func (c *Context) Send(dst overlay.Address, m overlay.Message, pri int) error {
	i := c.inst
	if i.lower == nil {
		// The frame lives in the node's encode scratch only until the
		// transport's Send has copied it into a datagram or its stream.
		frame, err := i.node.hot.w.EncodeMessage(i.def.registry, m)
		if err != nil {
			return err
		}
		return i.sendFrame(dst, frame, pri)
	}
	frame, err := i.encodeOwned(m)
	if err != nil {
		return err
	}
	if i.tracing(TraceHigh) {
		i.trace(TraceHigh, "send %s to %v via %s", m.MsgName(), dst, i.lower.def.name)
	}
	i.counters.MsgsSent.Inc()
	i.counters.BytesSent.Add(uint64(len(frame)))
	i.node.postAPI(i.lower, &APICall{
		Kind:        overlay.APIRouteIP,
		DestIP:      dst,
		Payload:     frame,
		PayloadType: ProtocolPayload,
		Priority:    pri,
	})
	return nil
}

// downcall defers an API call to the layer below.
func (c *Context) downcall(call *APICall) error {
	i := c.inst
	if i.lower == nil {
		return fmt.Errorf("core: %s has no layer below for %s", i.def.name, call.Kind)
	}
	i.node.postAPI(i.lower, call)
	return nil
}

// Route asks the layer below to route a payload toward a key.
func (c *Context) Route(dest overlay.Key, payload []byte, typ int32, pri int) error {
	return c.downcall(&APICall{Kind: overlay.APIRoute, Dest: dest, Payload: payload, PayloadType: typ, Priority: pri})
}

// RouteIP asks the layer below to deliver a payload to an address directly.
func (c *Context) RouteIP(dst overlay.Address, payload []byte, typ int32, pri int) error {
	return c.downcall(&APICall{Kind: overlay.APIRouteIP, DestIP: dst, Payload: payload, PayloadType: typ, Priority: pri})
}

// Multicast asks the layer below to disseminate a payload to a group.
func (c *Context) Multicast(group overlay.Key, payload []byte, typ int32, pri int) error {
	return c.downcall(&APICall{Kind: overlay.APIMulticast, Group: group, Payload: payload, PayloadType: typ, Priority: pri})
}

// Anycast asks the layer below to deliver a payload to one group member.
func (c *Context) Anycast(group overlay.Key, payload []byte, typ int32, pri int) error {
	return c.downcall(&APICall{Kind: overlay.APIAnycast, Group: group, Payload: payload, PayloadType: typ, Priority: pri})
}

// Collect sends a payload up the group's distribution tree toward its root,
// the reverse-multicast primitive the paper introduces (§2.2).
func (c *Context) Collect(group overlay.Key, payload []byte, typ int32, pri int) error {
	return c.downcall(&APICall{Kind: overlay.APICollect, Group: group, Payload: payload, PayloadType: typ, Priority: pri})
}

// CreateGroup / JoinGroup / LeaveGroup manage multicast session state below.
func (c *Context) CreateGroup(g overlay.Key) error {
	return c.downcall(&APICall{Kind: overlay.APICreateGroup, Group: g})
}

// JoinGroup subscribes this node to a group via the layer below.
func (c *Context) JoinGroup(g overlay.Key) error {
	return c.downcall(&APICall{Kind: overlay.APIJoin, Group: g})
}

// LeaveGroup unsubscribes this node from a group via the layer below.
func (c *Context) LeaveGroup(g overlay.Key) error {
	return c.downcall(&APICall{Kind: overlay.APILeave, Group: g})
}

// DowncallExt is the extensible downcall into the layer below.
func (c *Context) DowncallExt(op int, arg any) error {
	return c.downcall(&APICall{Kind: overlay.APIDowncallExt, Op: op, Arg: arg})
}

// Deliver passes a payload up: to the layer above when it is a protocol
// message or to the application when this is the top layer (the deliver()
// upcall). Delivery is deferred until the current transition completes.
func (c *Context) Deliver(payload []byte, typ int32, src overlay.Address) {
	c.inst.node.post(event{kind: qDeliver, inst: c.inst, buf: payload, typ: typ, src: src})
}

// Forward runs the forward() upcall for a payload about to be forwarded to
// next: the layer above (or the application) may quash it or redirect it.
// It returns whether to proceed, the possibly-rewritten next hop, and the
// possibly-rewritten payload.
func (c *Context) Forward(payload []byte, typ int32, next overlay.Address, nextKey overlay.Key) (bool, overlay.Address, []byte) {
	return c.inst.forwardUp(payload, typ, next, nextKey)
}

// NotifyNeighbors runs the notify() upcall: the layer above (or the
// application) learns this protocol's neighbor set changed. Deferred.
func (c *Context) NotifyNeighbors(nt overlay.NeighborType, neighbors []overlay.Address) {
	i := c.inst
	i.node.postFunc(func() { i.notifyUp(nt, neighbors) })
}

// UpcallExt is the extensible upcall to the layer above or application.
// Deferred; any result the upper layer produces must travel back through a
// DowncallExt or protocol message.
func (c *Context) UpcallExt(op int, arg any) {
	i := c.inst
	i.node.postFunc(func() { i.upcallExt(op, arg) })
}

// EncodeFrame encodes one of this protocol's own messages for transmission
// through the layer below's route/multicast path (as a ProtocolPayload).
func (c *Context) EncodeFrame(m overlay.Message) ([]byte, error) {
	return c.inst.encodeOwned(m)
}

// Tracef writes a protocol-level trace line at the given level.
func (c *Context) Tracef(l TraceLevel, format string, args ...any) {
	c.inst.trace(l, format, args...)
}
