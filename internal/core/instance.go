package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/substrate"
	"macedon/internal/transport"
)

// Instance is one protocol layer on one node: the "MACEDON agent" of §3.2.
// It owns the protocol's FSM state, timers, neighbor lists, and the
// read/write lock that serializes control transitions against data
// transitions; the declarations they instantiate are its Def's.
type Instance struct {
	node  *Node
	agent Agent
	def   *Def

	mu    sync.RWMutex
	state State

	// timers[id] is the state of the timer declared with that id; nbrs[k] is
	// the k-th declared neighbor list. Pointers, because a queued timer fire
	// holds its *timerState and a checkpoint restores a slice into a new
	// array.
	timers []*timerState
	nbrs   []*NeighborList

	lower, upper *Instance

	counters counterSet
	hot      instHot // a named field: embedding would promote StateCopyOpaque to Instance
}

// instHot is the instance's share of the hot-path storage (see hotPath):
// fixed at construction or scratch between events, so checkpoints skip it.
type instHot struct {
	traceMax TraceLevel // highest level that reaches the tracer

	// ctx and ev are what every transition of this instance receives: valid
	// for that transition only, as their docs say, and reused by the next.
	// Per instance, not per node, because a forward upcall dispatches into
	// the layer above while the layer below is still mid-transition.
	ctx Context
	ev  MsgEvent

	// sendVia[id] is the transport message id goes out on at the default
	// priority, nil until its first such send resolves it (transportFor).
	// The node's transports are fixed at construction, so it never changes.
	sendVia []transport.Transport

	// rx[id] is the receive slot a shared Def's instance decodes every frame
	// of message id into, made by the Def's factory on the first; nil for a
	// Def of the instance's own (see decode).
	rx []overlay.Message
}

// StateCopyOpaque keeps the per-instance scratch out of checkpoint images.
func (*instHot) StateCopyOpaque() {}

type timerState struct {
	decl *timerDecl
	tm   substrate.Timer // non-nil while armed
	gen  uint64          // invalidates queued fires after cancel/resched
	fire timerCallback
}

// timerCallback caches the substrate timer whose callback queues a qTimer
// event stamped gen. It is rebuilt only when the timer's generation has
// moved, so a timer that just keeps firing and being re-armed reuses one
// closure and one substrate timer, re-armed by Reset. A pure cache keyed by
// gen — a rewound timerState finds it either still matching or stale, and
// whether it is armed is ts.tm's to say — so checkpoints skip it.
type timerCallback struct {
	tm  substrate.Timer
	gen uint64
}

// StateCopyOpaque keeps the callback cache out of checkpoint images.
func (*timerCallback) StateCopyOpaque() {}

// typeDefs holds the Def of every TypeDefined agent type built so far, keyed
// by its reflect.Type. A Def is never written once built, so the cache is
// shared by every goroutine that spawns nodes.
var typeDefs sync.Map

// defFor returns the Def an instance of agent dispatches through: its type's
// shared one for a TypeDefined agent, built on first use, and a fresh one for
// any other agent.
func defFor(agent Agent) (*Def, error) {
	if _, ok := agent.(TypeDefined); !ok {
		return buildDef(agent)
	}
	t := reflect.TypeOf(agent)
	if d, ok := typeDefs.Load(t); ok {
		return d.(*Def), nil
	}
	d, err := buildDef(agent)
	if err != nil {
		return nil, err
	}
	d.shared = true
	// Shards spawning their first nodes at once may each build one: they are
	// identical, and all but the first stored are dropped.
	stored, _ := typeDefs.LoadOrStore(t, d)
	return stored.(*Def), nil
}

// buildDef runs agent's Define into a new Def, then validates and indexes it.
func buildDef(agent Agent) (*Def, error) {
	d := newDef(protocolName(agent))
	agent.Define(d)
	if err := d.validate(); err != nil {
		return nil, err
	}
	d.index()
	return d, nil
}

func newInstance(n *Node, agent Agent) (*Instance, error) {
	d, err := defFor(agent)
	if err != nil {
		return nil, err
	}
	i := &Instance{node: n, agent: agent, def: d, state: StateInit}
	i.hot.ctx.inst = i
	i.hot.sendVia = make([]transport.Transport, len(d.byID))
	if d.shared {
		i.hot.rx = make([]overlay.Message, len(d.byID))
	}
	timers := make([]timerState, len(d.timers))
	i.timers = make([]*timerState, len(d.timers))
	for _, td := range d.timers {
		timers[td.id].decl = td
		i.timers[td.id] = &timers[td.id]
	}
	i.nbrs = make([]*NeighborList, len(d.neighbors))
	for k, nd := range d.neighbors {
		i.nbrs[k] = newNeighborList(nd)
	}
	level := n.traceLevel
	if d.traceSet {
		level = d.traceLevel
	}
	for level > TraceOff && !n.tracer.Enabled(level) {
		level--
	}
	i.hot.traceMax = level
	return i, nil
}

// protocolName is the name an agent's Def takes: what its optional
// ProtocolName method returns, which every bundled and generated agent
// implements, or else its Go type.
func protocolName(a Agent) string {
	if n, ok := a.(interface{ ProtocolName() string }); ok {
		return n.ProtocolName()
	}
	return fmt.Sprintf("%T", a)
}

// Name returns the protocol name.
func (i *Instance) Name() string { return i.def.name }

// State returns the instance's current FSM state (for tests and tools).
func (i *Instance) State() State {
	i.mu.RLock()
	defer i.mu.RUnlock()
	return i.state
}

// Agent returns the protocol implementation (for white-box inspection in
// experiments: the paper's debugging features dump protocol state the same
// way).
func (i *Instance) Agent() Agent { return i.agent }

// Counters returns a snapshot of the instance's engine counters. The
// accumulator is atomic, so no lock is needed: control goroutines (live
// agents serving /metrics, tests polling mid-run) can snapshot while
// transitions execute.
func (i *Instance) Counters() Counters {
	return i.counters.snapshot()
}

// NeighborsSnapshot returns the member addresses of a neighbor list in an
// array of the caller's own. It runs under the read lock from goroutines
// other than the node's, so it must not fill the list's Addrs cache. A nil
// Instance has no lists.
func (i *Instance) NeighborsSnapshot(name string) []overlay.Address {
	if i == nil {
		return nil
	}
	i.mu.RLock()
	defer i.mu.RUnlock()
	if k, ok := i.def.nbrIdx[name]; ok {
		return i.nbrs[k].copyAddrs()
	}
	return nil
}

// neighbors returns the named neighbor list, which must be declared.
func (i *Instance) neighbors(name string) *NeighborList {
	k, ok := i.def.nbrIdx[name]
	if !ok {
		panic(fmt.Sprintf("core: %s: undeclared neighbor list %q", i.def.name, name))
	}
	return i.nbrs[k]
}

// timer returns the state of the named timer, which must be declared.
func (i *Instance) timer(name string) *timerState {
	td, ok := i.def.timers[name]
	if !ok {
		panic(fmt.Sprintf("core: %s: undeclared timer %q", i.def.name, name))
	}
	return i.timers[td.id]
}

// tracing reports whether a line at level l would be written. Call sites on
// the event path test it before calling trace: building trace's variadic
// arguments boxes every operand, which with tracing off used to be the
// engine's largest single source of allocations.
func (i *Instance) tracing(l TraceLevel) bool { return l <= i.hot.traceMax }

func (i *Instance) trace(l TraceLevel, format string, args ...any) {
	if !i.tracing(l) {
		return
	}
	i.node.tracer.tracef(l, i.node.clock.Now(), "%s",
		fmt.Sprintf("%v %s: %s", i.node.addr, i.def.name, fmt.Sprintf(format, args...)))
}

// dispatch finds the first of ts — the transitions declared for the event
// (kind, name) — whose guard matches the current state and runs it under the
// declared lock mode with the operand its kind takes: ev for recv/forward,
// call for API, neither for timers. It reports whether a transition ran.
func (i *Instance) dispatch(ts []transition, kind eventKind, name string, ev *MsgEvent, call *APICall) bool {
	// Guard evaluation reads the state; take the read lock briefly, then the
	// transition lock. State can only move under the write lock, and control
	// events are serialized per instance, so re-checking under the
	// transition lock keeps the race window harmless: a guard that matched
	// is re-validated before the handler runs.
	for idx := range ts {
		t := ts[idx]
		if t.lock == Read {
			i.mu.RLock()
		} else {
			i.mu.Lock()
		}
		if !t.guard.Matches(i.state) {
			if t.lock == Read {
				i.mu.RUnlock()
			} else {
				i.mu.Unlock()
			}
			continue
		}
		i.counters.Transitions.Inc()
		if i.tracing(TraceMed) {
			i.trace(TraceMed, "%s %s [%s, %s]", kind, name, t.guard, t.lock)
		}
		switch kind {
		case evRecv, evForward:
			t.msg(&i.hot.ctx, ev)
		case evTimer:
			t.timer(&i.hot.ctx)
		default:
			t.api(&i.hot.ctx, call)
		}
		if t.lock == Read {
			i.mu.RUnlock()
		} else {
			i.mu.Unlock()
		}
		return true
	}
	i.counters.Unhandled.Inc()
	if i.tracing(TraceMed) {
		i.trace(TraceMed, "unhandled %s %s in state %s", kind, name, i.state)
	}
	return false
}

// handleFrame demultiplexes a frame addressed to this layer into a recv
// transition; what names the frame's kind ("frame" off the wire, "layered
// frame" out of the layer below) in the trace line a malformed one earns.
// Byte-string fields of the decoded message alias frame, which is lent: they
// are valid until the event chain that decoded them ends, and a transition
// that keeps one past it clones it.
func (i *Instance) handleFrame(what string, src overlay.Address, frame []byte) {
	m, err := i.decode(frame)
	if err != nil {
		i.trace(TraceLow, "bad %s from %v: %v", what, src, err)
		return
	}
	i.counters.MsgsRecv.Inc()
	i.counters.BytesRecv.Add(uint64(len(frame)))
	i.dispatchMsg(evRecv, frameID(frame), MsgEvent{Msg: m, From: src})
}

// decode parses one of this protocol's frames with the node's Reader. An
// instance of a shared Def decodes into its receive slot for the frame's
// message type, which the Def's factory makes on the first frame of that type:
// its agent keeps no ev.Msg (TypeDefined), and the message is dispatched
// before this instance decodes again. Any other instance decodes into
// whatever the registered factory returns.
func (i *Instance) decode(frame []byte) (overlay.Message, error) {
	r := &i.node.hot.r
	if !i.def.shared {
		return r.DecodeMessage(i.def.registry, frame)
	}
	r.Reset(frame)
	id := r.U16()
	if err := r.Err(); err != nil {
		return nil, err
	}
	var m overlay.Message
	if int(id) < len(i.hot.rx) {
		m = i.hot.rx[id]
	}
	if m == nil {
		var err error
		if m, err = i.def.registry.New(id); err != nil { // an unknown id: ErrUnknownMessage
			return nil, err
		}
		i.hot.rx[id] = m
	}
	if err := m.Decode(r); err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// frameID reads the registry id heading a frame that this protocol's
// registry has just encoded or decoded: [type u16][body], see
// overlay.Writer.EncodeMessage.
func frameID(frame []byte) uint16 { return binary.BigEndian.Uint16(frame) }

// dispatchMsg runs a recv or forward transition on a decoded message of
// registry id id. The handler sees the instance's one MsgEvent; what it left
// there is returned.
func (i *Instance) dispatchMsg(kind eventKind, id uint16, ev MsgEvent) (MsgEvent, bool) {
	r := &i.def.byID[id]
	ts := r.recv
	if kind == evForward {
		ts = r.forward
	}
	i.hot.ev = ev
	handled := i.dispatch(ts, kind, r.name, &i.hot.ev, nil)
	ev, i.hot.ev = i.hot.ev, MsgEvent{}
	return ev, handled
}

// sendFrame transmits a frame this instance has just encoded on the lowest
// layer: on transport pri when that names one, on the message's declared
// transport otherwise.
func (i *Instance) sendFrame(dst overlay.Address, frame []byte, pri int) error {
	id := frameID(frame)
	tr := i.hot.sendVia[id]
	if pri >= 0 || tr == nil {
		var err error
		if tr, err = i.node.transportFor(i.def, id, pri); err != nil {
			return err
		}
		if pri < 0 {
			i.hot.sendVia[id] = tr
		}
	}
	i.counters.MsgsSent.Inc()
	i.counters.BytesSent.Add(uint64(len(frame)))
	if i.tracing(TraceHigh) {
		i.trace(TraceHigh, "send %s to %v on %s", i.def.byID[id].name, dst, tr.Name())
	}
	return tr.Send(dst, frame)
}

// encodeOwned renders one of this protocol's messages into a fresh frame
// the caller may keep: what a frame needs when it outlives the current
// event (a deferred downcall's payload, a frame handed to protocol code).
func (i *Instance) encodeOwned(m overlay.Message) ([]byte, error) {
	frame, err := i.node.hot.w.EncodeMessage(i.def.registry, m)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(frame), nil
}

// schedTimer implements timer_sched / timer_resched.
func (i *Instance) schedTimer(name string, d time.Duration, replace bool) {
	ts := i.timer(name)
	if d <= 0 {
		d = ts.decl.period
	}
	if d <= 0 {
		panic(fmt.Sprintf("core: %s: timer %q scheduled with no period", i.def.name, name))
	}
	if ts.tm != nil {
		if !replace {
			return
		}
		ts.tm.Stop()
		ts.tm = nil
		ts.gen++ // the stopped timer's fire may already be queued: defeat it
	}
	if i.tracing(TraceHigh) {
		i.trace(TraceHigh, "timer %s in %v", name, d)
	}
	i.armTimer(ts, d)
}

// armTimer schedules the timer's fire through the node queue so timer
// transitions serialize with every other event. The generation stamp makes
// cancellations and reschedules win over already-queued fires: both bump
// ts.gen, and a fire stamped with an older generation is dropped. Arming an
// idle timer keeps the generation — nothing stamped with it can still be
// in flight, its one fire has run or a cancel has moved past it — which is
// what lets the callback and its substrate timer be reused. The callback
// captures gen by value: on the live backend it runs on a timer goroutine,
// where reading ts.gen would race with the node's event loop.
func (i *Instance) armTimer(ts *timerState, d time.Duration) {
	if ts.fire.tm != nil && ts.fire.gen == ts.gen {
		ts.fire.tm.Reset(d)
	} else {
		gen := ts.gen
		ts.fire = timerCallback{gen: gen, tm: i.node.clock.After(d, func() {
			i.node.post(event{kind: qTimer, inst: i, ts: ts, gen: gen})
		})}
	}
	ts.tm = ts.fire.tm
}

func (i *Instance) fireTimer(ts *timerState, gen uint64) {
	if i.node.stopped || gen != ts.gen {
		return
	}
	ts.tm = nil
	i.counters.TimerFires.Inc()
	i.dispatch(ts.decl.fire, evTimer, ts.decl.name, nil, nil)
	if ts.decl.periodic && ts.tm == nil {
		i.armTimer(ts, ts.decl.period)
	}
}

// dispatchAPI runs an API transition. Unhandled calls are counted and
// otherwise ignored, as an overlay with no matching transition would be.
func (i *Instance) dispatchAPI(call *APICall) {
	var ts []transition
	if k := int(call.Kind); k < len(i.def.byAPI) {
		ts = i.def.byAPI[k]
	}
	i.dispatch(ts, evAPI, call.Kind.String(), nil, call)
}

// deliverUp implements the deliver() upcall from this layer. An
// application payload goes to the application whichever layer delivers it:
// a layer above that passed a route through to this one has no transition
// for it. forwardUp does the same for the forward() upcall.
func (i *Instance) deliverUp(payload []byte, typ int32, src overlay.Address) {
	i.counters.Delivered.Inc()
	if typ == ProtocolPayload && i.upper != nil {
		i.upper.handleFrame("layered frame", src, payload)
		return
	}
	if typ >= 0 {
		if i.tracing(TraceHigh) {
			i.trace(TraceHigh, "deliver type %d from %v to application", typ, src)
		}
		if h := i.node.handlers.Deliver; h != nil {
			h(payload, typ, src)
		}
		return
	}
	i.counters.Unhandled.Inc()
	i.trace(TraceLow, "undeliverable payload type %d from %v", typ, src)
}

// forwardUp implements the forward() upcall: it gives the layer above (or
// the application) the chance to redirect, rewrite, or quash a payload this
// layer is about to forward toward next.
func (i *Instance) forwardUp(payload []byte, typ int32, next overlay.Address, nextKey overlay.Key) (bool, overlay.Address, []byte) {
	i.counters.Forwarded.Inc()
	if typ == ProtocolPayload && i.upper != nil {
		up := i.upper
		m, err := up.decode(payload)
		if err != nil {
			up.trace(TraceLow, "bad layered frame in forward: %v", err)
			return true, next, payload
		}
		ev, handled := up.dispatchMsg(evForward, frameID(payload), MsgEvent{Msg: m, NextHop: next, NextKey: nextKey})
		if !handled {
			return true, next, payload
		}
		if ev.Quash {
			return false, next, payload
		}
		// The transition may have mutated the message; re-encode so the
		// rewritten form travels on (the paper: "intermediate nodes can
		// change the message or its destination").
		newPayload, err := up.encodeOwned(ev.Msg)
		if err != nil {
			return true, ev.NextHop, payload
		}
		return true, ev.NextHop, newPayload
	}
	if typ >= 0 {
		if h := i.node.handlers.Forward; h != nil {
			return h(payload, typ, next, nextKey), next, payload
		}
	}
	return true, next, payload
}

// notifyUp implements the notify() upcall.
func (i *Instance) notifyUp(nt overlay.NeighborType, neighbors []overlay.Address) {
	if i.upper != nil {
		i.upper.dispatchAPI(&APICall{Kind: overlay.APINotify, NbrType: nt, Neighbors: neighbors})
		return
	}
	if h := i.node.handlers.Notify; h != nil {
		h(nt, neighbors)
	}
}

// upcallExt implements the extensible upcall_ext.
func (i *Instance) upcallExt(op int, arg any) int {
	if i.upper != nil {
		call := &APICall{Kind: overlay.APIUpcallExt, Op: op, Arg: arg}
		i.upper.dispatchAPI(call)
		return call.Return
	}
	if h := i.node.handlers.Upcall; h != nil {
		return h(op, arg)
	}
	return 0
}

// stopTimers cancels all pending protocol timers.
func (i *Instance) stopTimers() {
	for _, ts := range i.timers {
		if ts.tm != nil {
			ts.tm.Stop()
			ts.tm = nil
		}
	}
}
