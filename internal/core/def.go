// Package core is the MACEDON engine: the runtime half of the paper's
// primary contribution. Protocols — whether hand-written or emitted by the
// code generator — declare their finite state machine (system states,
// messages with transport bindings, timers, neighbor lists, and transitions
// scoped by state expressions) through a Def, and the engine supplies
// everything §1 lists as shared infrastructure: thread and timer management,
// network communication, per-transition read/write locking, failure
// detection, protocol layering with the overlay-generic API of Figure 3,
// debugging/tracing, and state serialization points.
package core

import (
	"fmt"
	"time"

	"macedon/internal/overlay"
)

// State is an FSM system state ("phase of execution", §2.1.1).
type State string

// StateInit is the automatic starting state of every protocol.
const StateInit State = "init"

// StateExpr guards a transition: the grammar's STATE EXPR. Expressions are
// built from Any, In, and Not.
type StateExpr interface {
	Matches(s State) bool
	String() string
}

type anyExpr struct{}

func (anyExpr) Matches(State) bool { return true }
func (anyExpr) String() string     { return "any" }

// Any matches every state: the grammar's "any" scope.
var Any StateExpr = anyExpr{}

type inExpr []State

func (e inExpr) Matches(s State) bool {
	for _, st := range e {
		if st == s {
			return true
		}
	}
	return false
}

func (e inExpr) String() string {
	out := ""
	for i, st := range e {
		if i > 0 {
			out += "|"
		}
		out += string(st)
	}
	return "(" + out + ")"
}

// In matches any of the listed states, e.g. In("joined", "probing").
func In(states ...State) StateExpr { return inExpr(states) }

type notExpr struct{ inner StateExpr }

func (e notExpr) Matches(s State) bool { return !e.inner.Matches(s) }
func (e notExpr) String() string       { return "!" + e.inner.String() }

// Not negates an expression, e.g. Not(In("joining", "init")) for the
// paper's "!(joining|init)".
func Not(e StateExpr) StateExpr { return notExpr{e} }

// LockMode is the transition's serialization class (§2.1.2): control
// transitions write node state and take the instance lock exclusively; data
// transitions only read and may run concurrently.
type LockMode uint8

const (
	// Write is the default: exclusive access ("control").
	Write LockMode = iota
	// Read allows concurrent data transitions ("data").
	Read
)

// String names the lock mode as the grammar's locking option does.
func (m LockMode) String() string {
	if m == Read {
		return "read"
	}
	return "write"
}

// Addressing selects the protocol's address family (grammar header).
type Addressing uint8

const (
	// HashAddressing routes by 32-bit hash keys.
	HashAddressing Addressing = iota
	// IPAddressing routes by node addresses directly.
	IPAddressing
)

// Handler kinds.
type (
	// MsgHandler runs a message transition (recv or forward).
	MsgHandler func(ctx *Context, ev *MsgEvent)
	// TimerHandler runs a timer transition.
	TimerHandler func(ctx *Context)
	// APIHandler runs an API transition.
	APIHandler func(ctx *Context, call *APICall)
)

// RecvOf turns a handler that takes its agent and its message as arguments —
// a method expression such as (*Agent).transition2 — into a MsgHandler for a
// recv or forward transition. The handler runs on the agent of the instance
// the transition fires on, so the Def that holds it can serve every instance
// of a TypeDefined agent type; its message is ev.Msg, of the type the
// transition's message factory makes.
func RecvOf[A Agent, M overlay.Message](h func(A, *Context, *MsgEvent, M)) MsgHandler {
	return func(ctx *Context, ev *MsgEvent) { h(ctx.inst.agent.(A), ctx, ev, ev.Msg.(M)) }
}

// TimerOf is RecvOf for a timer transition.
func TimerOf[A Agent](h func(A, *Context)) TimerHandler {
	return func(ctx *Context) { h(ctx.inst.agent.(A), ctx) }
}

// APIOf is RecvOf for an API transition.
func APIOf[A Agent](h func(A, *Context, *APICall)) APIHandler {
	return func(ctx *Context, call *APICall) { h(ctx.inst.agent.(A), ctx, call) }
}

type eventKind uint8

const (
	evRecv eventKind = iota
	evForward
	evTimer
	evAPI
)

func (k eventKind) String() string {
	switch k {
	case evRecv:
		return "recv"
	case evForward:
		return "forward"
	case evTimer:
		return "timer"
	default:
		return "API"
	}
}

type eventKey struct {
	kind eventKind
	name string // message name, timer name, or API kind name
}

type transition struct {
	guard StateExpr
	lock  LockMode
	msg   MsgHandler
	timer TimerHandler
	api   APIHandler
}

type transportDecl struct {
	name string
	kind overlay.TransportKind
}

type messageDecl struct {
	name      string
	transport string // default transport instance name
}

type timerDecl struct {
	id       int // the timer's index in Instance.timers
	name     string
	period   time.Duration // default period for Resched-with-default
	periodic bool          // automatically re-arm after each fire
	fire     []transition  // the timer's transitions, resolved by Def.index
}

type neighborDecl struct {
	name       string
	max        int
	failDetect bool
}

// Def collects a protocol's declaration: everything a .mac file's STATE AND
// DATA and TRANSITIONS sections contain. The engine builds one, hands it to
// the Agent's Define method, validates and indexes it, and never writes it
// again: a TypeDefined agent's Def is built once per agent type and shared by
// every instance of it, any other agent's once per instance.
type Def struct {
	name       string
	addressing Addressing
	traceLevel TraceLevel
	traceSet   bool

	states     map[State]bool
	transports []transportDecl
	messages   map[string]*messageDecl
	msgOrder   []string
	registry   *overlay.Registry
	timers     map[string]*timerDecl
	neighbors  []neighborDecl

	transitions map[eventKey][]transition

	// byID is what a message crossing the engine needs, indexed by its
	// registry id — the first two bytes of its frame — so the message path
	// looks nothing up by name. byAPI is the API transitions by overlay.API
	// kind, up to the highest kind OnAPI saw (apiKinds); a timer's are on its
	// timerDecl. nbrIdx is each neighbor list's index in neighbors. All built
	// by index once validate has passed.
	byID     []msgRoute
	byAPI    [][]transition
	apiKinds int
	nbrIdx   map[string]int

	// shared marks a TypeDefined agent type's Def: its instances decode into
	// receive slots of their own (instHot.rx), not through the factories.
	shared bool
}

// msgRoute is one message's row of Def.byID: views of the declaration maps.
type msgRoute struct {
	name          string
	recv, forward []transition
	transport     string // default transport instance name, "" on higher layers
}

func newDef(name string) *Def {
	return &Def{
		name:        name,
		states:      map[State]bool{StateInit: true},
		messages:    make(map[string]*messageDecl),
		registry:    overlay.NewRegistry(name),
		timers:      make(map[string]*timerDecl),
		transitions: make(map[eventKey][]transition),
	}
}

// Name returns the protocol name.
func (d *Def) Name() string { return d.name }

// States declares the protocol's FSM states; "init" is always present.
func (d *Def) States(states ...State) {
	for _, s := range states {
		d.states[s] = true
	}
}

// Addressing sets the protocol's address family (hash by default).
func (d *Def) Addressing(a Addressing) { d.addressing = a }

// Trace sets the protocol's tracing level, overriding the node's default.
func (d *Def) Trace(l TraceLevel) { d.traceLevel, d.traceSet = l, true }

// TCPTransport declares a reliable congestion-friendly transport instance.
// Transport declaration order is priority order: index 0 is highest.
func (d *Def) TCPTransport(name string) {
	d.transports = append(d.transports, transportDecl{name: name, kind: overlay.TCP})
}

// UDPTransport declares an unreliable transport instance.
func (d *Def) UDPTransport(name string) {
	d.transports = append(d.transports, transportDecl{name: name, kind: overlay.UDP})
}

// SWPTransport declares a reliable congestion-unfriendly sliding-window
// transport instance.
func (d *Def) SWPTransport(name string) {
	d.transports = append(d.transports, transportDecl{name: name, kind: overlay.SWP})
}

// Message declares a message type bound to a default transport instance.
// Higher-layer protocols pass transport "" — their messages travel inside
// the base layer's data messages. For an agent that is not TypeDefined the
// engine calls the factory for every frame of the type it receives; the
// factory may return recycled storage, cleared, valid until its next call,
// because the engine dispatches a decoded message before this instance
// decodes again. A TypeDefined agent's factory must return a fresh message:
// the engine calls it once per instance for the type's receive slot, and
// decodes every later frame of the type into that slot.
func (d *Def) Message(name string, factory func() overlay.Message, transport string) {
	if _, dup := d.messages[name]; dup {
		panic(fmt.Sprintf("core: message %q declared twice in %q", name, d.name))
	}
	d.registry.Register(name, factory)
	d.messages[name] = &messageDecl{name: name, transport: transport}
	d.msgOrder = append(d.msgOrder, name)
}

// Timer declares a timer state variable with a default period.
func (d *Def) Timer(name string, period time.Duration) { d.timer(name, period, false) }

// PeriodicTimer declares a timer that automatically re-arms with its period
// after every fire, until cancelled.
func (d *Def) PeriodicTimer(name string, period time.Duration) { d.timer(name, period, true) }

// timer declares or redeclares a timer; a redeclaration keeps the id.
func (d *Def) timer(name string, period time.Duration, periodic bool) {
	id := len(d.timers)
	if old, ok := d.timers[name]; ok {
		id = old.id
	}
	d.timers[name] = &timerDecl{id: id, name: name, period: period, periodic: periodic}
}

// NeighborList declares a neighbor set with a maximum size (<= 0 means
// unbounded). failDetect asks the engine to monitor members for failure and
// invoke the error API transition when one goes silent (§3.1).
func (d *Def) NeighborList(name string, max int, failDetect bool) {
	d.neighbors = append(d.neighbors, neighborDecl{name: name, max: max, failDetect: failDetect})
}

// OnRecv declares a message reception transition: the node is the message's
// destination (or the message is a lowest-layer control message).
func (d *Def) OnRecv(msg string, guard StateExpr, lock LockMode, h MsgHandler) {
	d.addTransition(eventKey{evRecv, msg}, transition{guard: guard, lock: lock, msg: h})
}

// OnForward declares a forward transition: a higher-layer message transiting
// this node while the base layer routes it. The handler may redirect or
// quash the message through the MsgEvent.
func (d *Def) OnForward(msg string, guard StateExpr, lock LockMode, h MsgHandler) {
	d.addTransition(eventKey{evForward, msg}, transition{guard: guard, lock: lock, msg: h})
}

// OnTimer declares a timer expiration transition.
func (d *Def) OnTimer(name string, guard StateExpr, lock LockMode, h TimerHandler) {
	d.addTransition(eventKey{evTimer, name}, transition{guard: guard, lock: lock, timer: h})
}

// OnAPI declares an API transition for calls arriving from the layer above
// (or the application), plus the engine-driven error and notify events.
func (d *Def) OnAPI(kind overlay.API, guard StateExpr, lock LockMode, h APIHandler) {
	d.addTransition(eventKey{evAPI, kind.String()}, transition{guard: guard, lock: lock, api: h})
	d.apiKinds = max(d.apiKinds, int(kind)+1)
}

func (d *Def) addTransition(k eventKey, t transition) {
	if t.guard == nil {
		t.guard = Any
	}
	d.transitions[k] = append(d.transitions[k], t)
}

// validate checks internal consistency after Define returns.
func (d *Def) validate() error {
	for k, ts := range d.transitions {
		switch k.kind {
		case evRecv, evForward:
			if _, ok := d.messages[k.name]; !ok {
				return fmt.Errorf("core: %s: transition on undeclared message %q", d.name, k.name)
			}
		case evTimer:
			if _, ok := d.timers[k.name]; !ok {
				return fmt.Errorf("core: %s: transition on undeclared timer %q", d.name, k.name)
			}
		}
		for _, t := range ts {
			if s, ok := d.undeclaredState(t.guard); ok {
				return fmt.Errorf("core: %s: %s %s transition guarded by undeclared state %q", d.name, k.kind, k.name, s)
			}
		}
	}
	tnames := make(map[string]bool, len(d.transports))
	for _, t := range d.transports {
		if tnames[t.name] {
			return fmt.Errorf("core: %s: transport %q declared twice", d.name, t.name)
		}
		tnames[t.name] = true
	}
	for _, m := range d.messages {
		if m.transport != "" && !tnames[m.transport] {
			return fmt.Errorf("core: %s: message %q bound to undeclared transport %q", d.name, m.name, m.transport)
		}
	}
	seen := make(map[string]bool, len(d.neighbors))
	for _, nb := range d.neighbors {
		if seen[nb.name] {
			return fmt.Errorf("core: %s: neighbor list %q declared twice", d.name, nb.name)
		}
		seen[nb.name] = true
	}
	return nil
}

// undeclaredState returns a state that a guard built from In and Not names
// but d does not declare: a guard that could never match it.
func (d *Def) undeclaredState(e StateExpr) (State, bool) {
	switch e := e.(type) {
	case inExpr:
		for _, s := range e {
			if !d.states[s] {
				return s, true
			}
		}
	case notExpr:
		return d.undeclaredState(e.inner)
	}
	return "", false
}

// index builds the dispatch tables: byID, byAPI, nbrIdx and every
// timerDecl.fire. Registry ids count messages in declaration order, which
// msgOrder records.
func (d *Def) index() {
	d.nbrIdx = make(map[string]int, len(d.neighbors))
	for k, nd := range d.neighbors {
		d.nbrIdx[nd.name] = k
	}
	d.byID = make([]msgRoute, len(d.msgOrder))
	for id, name := range d.msgOrder {
		d.byID[id] = msgRoute{
			name:      name,
			recv:      d.transitions[eventKey{evRecv, name}],
			forward:   d.transitions[eventKey{evForward, name}],
			transport: d.messages[name].transport,
		}
	}
	d.byAPI = make([][]transition, d.apiKinds)
	for kind := range d.byAPI {
		d.byAPI[kind] = d.transitions[eventKey{evAPI, overlay.API(kind).String()}]
	}
	for name, td := range d.timers {
		td.fire = d.transitions[eventKey{evTimer, name}]
	}
}

// Agent is a protocol implementation: what the code generator emits from a
// specification, or what a developer writes directly against the engine.
type Agent interface {
	// Define declares the protocol's FSM on the supplied Def, before any event
	// is dispatched to the agent. The engine calls it once per instance, or
	// once per agent type for a TypeDefined agent: then the agent it is
	// called on need not be one that ever runs.
	Define(d *Def)
}

// TypeDefined is an Agent whose FSM is a function of its type, so one Def
// serves every instance of the type: every node, shard and fork branch in
// the process. Implementing it makes two promises:
//
//   - Define reads nothing from its receiver. Its handlers reach their
//     agent through RecvOf, TimerOf and APIOf, not by capturing it, and its
//     message factories return fresh messages.
//   - No transition keeps ev.Msg past its return. The engine decodes every
//     frame of a message type into one receive slot per instance, which the
//     next frame of that type overwrites.
//
// Generated agents implement it.
type TypeDefined interface {
	Agent
	DefinedByType()
}

// Factory constructs a fresh Agent for one node's stack.
type Factory func() Agent
