package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/substrate"
	"macedon/internal/transport"
)

// hbTransport is the engine's private UDP channel for failure-detection
// heartbeats; it is always transport id 0 on every node.
const hbTransport = "@mac"

// Heartbeat datagram kinds.
const (
	hbRequest  = 0
	hbResponse = 1
)

// Config assembles one overlay node.
type Config struct {
	// Addr is the node's address; it must be attached to the network.
	Addr overlay.Address
	// Net supplies the clock and datagram endpoint.
	Net substrate.Network
	// Stack lists the protocol factories, lowest layer first. "protocol
	// scribe uses pastry" is Stack{pastry.New(), scribe.New()}.
	Stack []Factory
	// Bootstrap is the well-known bootstrap node passed to init transitions.
	Bootstrap overlay.Address

	// Seed for the node's PRNG; 0 derives one from the address.
	Seed int64

	// TraceLevel and TraceWriter configure engine tracing (default: off to
	// stderr).
	TraceLevel  TraceLevel
	TraceWriter io.Writer

	// Failure-detector parameters (§3.1): silence > HeartbeatAfter triggers
	// a heartbeat probe; silence > FailAfter invokes the error transition.
	// Zero values select 5 s and 20 s; Sweep defaults to 1 s.
	HeartbeatAfter time.Duration
	FailAfter      time.Duration
	Sweep          time.Duration
}

// Node is one overlay participant: a stack of protocol instances over the
// transport subsystem, plus the application-facing MACEDON API of Figure 3.
type Node struct {
	addr overlay.Address
	key  overlay.Key

	clock substrate.Clock
	mux   *transport.Mux
	seed  int64
	rng   *rand.Rand // built from seed by the first Context.Rand

	stack      []*Instance
	hb         transport.Transport   // the heartbeat channel, hbTransport
	prio       []transport.Transport // the lowest layer's, declaration order = priority order
	handlers   Handlers
	tracer     *Tracer // nil when tracing is off
	traceLevel TraceLevel

	hbAfter, failAfter, sweepEvery time.Duration
	heard                          map[overlay.Address]peerHeard
	sweepTimer                     substrate.Timer // queues a qSweep event; re-armed by runSweep

	// Deferred-execution queue and per-event scratch: every engine event
	// (frame, timer, API call, cross-layer dispatch) runs through here, one
	// at a time per node.
	hot hotPath

	stopped bool
}

// NewNode builds and starts a node: transports are created, instances
// defined and wired, and every layer's init transition dispatched bottom-up.
func NewNode(cfg Config) (*Node, error) {
	if len(cfg.Stack) == 0 {
		return nil, errors.New("core: empty protocol stack")
	}
	if cfg.Net == nil {
		return nil, errors.New("core: no network substrate")
	}
	ep, err := cfg.Net.Endpoint(cfg.Addr)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(cfg.Addr)*2654435761 + 1
	}
	n := &Node{
		addr:       cfg.Addr,
		key:        overlay.HashAddress(cfg.Addr),
		clock:      cfg.Net,
		seed:       seed,
		traceLevel: cfg.TraceLevel,
		hbAfter:    cfg.HeartbeatAfter,
		failAfter:  cfg.FailAfter,
		sweepEvery: cfg.Sweep,
		heard:      make(map[overlay.Address]peerHeard),
	}
	if cfg.TraceLevel != TraceOff {
		tw := cfg.TraceWriter
		if tw == nil {
			tw = os.Stderr
		}
		n.tracer = newTracer(tw, cfg.TraceLevel)
	}
	if n.hbAfter <= 0 {
		n.hbAfter = 5 * time.Second
	}
	if n.failAfter <= 0 {
		n.failAfter = 20 * time.Second
	}
	if n.sweepEvery <= 0 {
		n.sweepEvery = time.Second
	}

	n.mux = transport.NewMux(ep, cfg.Net)
	n.mux.SetRecv(n.onFrame)
	n.hb = n.mux.AddUDP(hbTransport)

	for _, f := range cfg.Stack {
		inst, err := newInstance(n, f())
		if err != nil {
			return nil, err
		}
		n.stack = append(n.stack, inst)
	}
	for i := range n.stack {
		if i > 0 {
			n.stack[i].lower = n.stack[i-1]
			n.stack[i-1].upper = n.stack[i]
		}
	}
	// Only the lowest layer's transports are instantiated; higher layers'
	// messages ride the base layer (§3.1).
	for _, td := range n.stack[0].def.transports {
		var t transport.Transport
		switch td.kind {
		case overlay.TCP:
			t = n.mux.AddTCP(td.name)
		case overlay.UDP:
			t = n.mux.AddUDP(td.name)
		case overlay.SWP:
			t = n.mux.AddSWP(td.name)
		}
		n.prio = append(n.prio, t)
	}

	// Init transitions run bottom-up, then the failure-detector sweep
	// starts.
	boot := cfg.Bootstrap
	n.postFunc(func() {
		for _, inst := range n.stack {
			inst.dispatchAPI(&APICall{Kind: overlay.APIInit, Bootstrap: boot})
		}
	})
	n.sweepTimer = n.clock.After(n.sweepEvery, func() { n.post(event{kind: qSweep}) })
	return n, nil
}

// postFunc queues a closure: the fallback for events too rare to deserve a
// record kind of their own.
func (n *Node) postFunc(fn func()) { n.post(event{kind: qFunc, fn: fn}) }

// Exec runs fn on the node's serialized execution queue and waits for it to
// finish: the safe way for code outside the event loop — live deployments
// and tests polling protocol state while socket goroutines dispatch — to
// inspect or mutate protocol instances. Must not be called from within the
// node's own event handlers (it would deadlock waiting on itself).
func (n *Node) Exec(fn func()) {
	done := make(chan struct{})
	n.postFunc(func() {
		fn()
		close(done)
	})
	<-done
}

// Addr returns the node's address.
func (n *Node) Addr() overlay.Address { return n.addr }

// Key returns the node's hash key.
func (n *Node) Key() overlay.Key { return n.key }

// Stack returns the protocol instances, lowest first.
func (n *Node) Stack() []*Instance { return append([]*Instance(nil), n.stack...) }

// Instance returns the named protocol instance, or nil.
func (n *Node) Instance(proto string) *Instance {
	for _, i := range n.stack {
		if i.def.name == proto {
			return i
		}
	}
	return nil
}

// Top returns the highest-layer instance: the one the application talks to.
func (n *Node) Top() *Instance { return n.stack[len(n.stack)-1] }

// RegisterHandlers installs the application's upcall handlers
// (macedon_register_handlers).
func (n *Node) RegisterHandlers(h Handlers) { n.handlers = h }

// apiToTop defers an API call into the top instance.
func (n *Node) apiToTop(call *APICall) { n.postAPI(n.Top(), call) }

// Route sends payload toward the key dest through the overlay
// (macedon_route).
func (n *Node) Route(dest overlay.Key, payload []byte, typ int32, pri int) error {
	if typ < 0 {
		return fmt.Errorf("core: application payload types must be >= 0 (got %d)", typ)
	}
	n.apiToTop(&APICall{Kind: overlay.APIRoute, Dest: dest, Payload: payload, PayloadType: typ, Priority: pri})
	return nil
}

// RouteIP sends payload directly to a node address (macedon_routeIP).
func (n *Node) RouteIP(dst overlay.Address, payload []byte, typ int32, pri int) error {
	if typ < 0 {
		return fmt.Errorf("core: application payload types must be >= 0 (got %d)", typ)
	}
	n.apiToTop(&APICall{Kind: overlay.APIRouteIP, DestIP: dst, Payload: payload, PayloadType: typ, Priority: pri})
	return nil
}

// Multicast disseminates payload to a session (macedon_multicast).
func (n *Node) Multicast(group overlay.Key, payload []byte, typ int32, pri int) error {
	if typ < 0 {
		return fmt.Errorf("core: application payload types must be >= 0 (got %d)", typ)
	}
	n.apiToTop(&APICall{Kind: overlay.APIMulticast, Group: group, Payload: payload, PayloadType: typ, Priority: pri})
	return nil
}

// Anycast delivers payload to one member of a session (macedon_anycast).
func (n *Node) Anycast(group overlay.Key, payload []byte, typ int32, pri int) error {
	if typ < 0 {
		return fmt.Errorf("core: application payload types must be >= 0 (got %d)", typ)
	}
	n.apiToTop(&APICall{Kind: overlay.APIAnycast, Group: group, Payload: payload, PayloadType: typ, Priority: pri})
	return nil
}

// Collect sends payload up the session tree toward the root
// (macedon_collect).
func (n *Node) Collect(group overlay.Key, payload []byte, typ int32, pri int) error {
	if typ < 0 {
		return fmt.Errorf("core: application payload types must be >= 0 (got %d)", typ)
	}
	n.apiToTop(&APICall{Kind: overlay.APICollect, Group: group, Payload: payload, PayloadType: typ, Priority: pri})
	return nil
}

// CreateGroup creates a multicast session (macedon_create_group).
func (n *Node) CreateGroup(group overlay.Key) error {
	n.apiToTop(&APICall{Kind: overlay.APICreateGroup, Group: group})
	return nil
}

// Join subscribes to a session (macedon_join).
func (n *Node) Join(group overlay.Key) error {
	n.apiToTop(&APICall{Kind: overlay.APIJoin, Group: group})
	return nil
}

// Leave unsubscribes from a session (macedon_leave).
func (n *Node) Leave(group overlay.Key) error {
	n.apiToTop(&APICall{Kind: overlay.APILeave, Group: group})
	return nil
}

// Downcall issues an extensible downcall into the top protocol.
func (n *Node) Downcall(op int, arg any) {
	n.apiToTop(&APICall{Kind: overlay.APIDowncallExt, Op: op, Arg: arg})
}

// Counters sums the engine counters across the stack.
func (n *Node) Counters() Counters {
	var sum Counters
	for _, i := range n.stack {
		c := i.Counters()
		sum.MsgsSent += c.MsgsSent
		sum.MsgsRecv += c.MsgsRecv
		sum.BytesSent += c.BytesSent
		sum.BytesRecv += c.BytesRecv
		sum.TimerFires += c.TimerFires
		sum.Transitions += c.Transitions
		sum.Unhandled += c.Unhandled
		sum.Delivered += c.Delivered
		sum.Forwarded += c.Forwarded
		sum.Failures += c.Failures
	}
	return sum
}

// transport returns the lowest layer's transport named name, or nil.
func (n *Node) transport(name string) transport.Transport {
	for _, t := range n.prio {
		if t.Name() == name {
			return t
		}
	}
	return nil
}

// Stop cancels timers and closes the transports. The node must not be used
// afterwards.
func (n *Node) Stop() {
	n.postFunc(func() {
		n.stopped = true
		if n.sweepTimer != nil {
			n.sweepTimer.Stop()
		}
		for _, i := range n.stack {
			i.stopTimers()
		}
		n.mux.Close()
	})
}

// transportFor resolves the transport of the message with registry id id by
// priority override or declaration binding.
func (n *Node) transportFor(d *Def, id uint16, pri int) (transport.Transport, error) {
	if pri >= 0 && pri < len(n.prio) {
		return n.prio[pri], nil
	}
	m := &d.byID[id]
	if m.transport == "" {
		return nil, fmt.Errorf("core: %s: message %q has no transport binding and no priority was given", d.name, m.name)
	}
	t := n.transport(m.transport)
	if t == nil {
		return nil, fmt.Errorf("core: %s: transport %q not instantiated", d.name, m.transport)
	}
	return t, nil
}

// onFrame is the mux receive path. The frame is lent until onFrame returns
// (transport.RecvFunc). An idle node runs the frame's whole event chain
// before post returns, so the frame is used as it is: no copy, no closure.
// Only when the queue is already draining (live: a timer's chain on another
// goroutine; never in the emulator) must the frame wait, and then it is
// copied.
func (n *Node) onFrame(tname string, src overlay.Address, frame []byte) {
	n.hot.mu.Lock()
	if n.hot.draining {
		frame = bytes.Clone(frame)
	}
	n.postLocked(event{kind: qFrame, hb: tname == hbTransport, src: src, buf: frame})
}

// recvFrame runs a qFrame event: heartbeat bookkeeping plus lowest-layer
// demultiplexing.
func (n *Node) recvFrame(hb bool, src overlay.Address, frame []byte) {
	if n.stopped {
		return
	}
	n.heard[src] = peerHeard{at: n.clock.Now()}
	if hb {
		n.handleHeartbeat(src, frame)
		return
	}
	n.stack[0].handleFrame("frame", src, frame)
}

// Heartbeat datagrams are one constant byte; transports copy on Send.
var (
	hbRequestFrame  = []byte{hbRequest}
	hbResponseFrame = []byte{hbResponse}
)

func (n *Node) handleHeartbeat(src overlay.Address, frame []byte) {
	if len(frame) < 1 {
		return
	}
	if frame[0] == hbRequest {
		_ = n.hb.Send(src, hbResponseFrame)
	}
}

// peerHeard is the failure detector's book on one peer: when it was last
// heard from, and whether a heartbeat probe has gone unanswered since.
type peerHeard struct {
	at     time.Time
	probed bool
}

// sweepAct is one failure-detector decision about a list member: declare it
// failed, or solicit a heartbeat.
type sweepAct struct {
	addr overlay.Address
	fail bool
}

// runSweep is the failure detector (§3.1): for every fail_detect neighbor
// list member, silence beyond HeartbeatAfter solicits communication; silence
// beyond FailAfter removes the peer and invokes the error transition.
//
// Error transitions mutate neighbor lists, so a list is first walked for
// decisions and the decisions are then carried out in walk order. A
// decision depends only on the clock and the heard book of that one
// address, which no action on another address touches, so this is
// the same sweep as acting during the walk over a copy of the list.
func (n *Node) runSweep() {
	if n.stopped {
		return
	}
	now := n.clock.Now()
	var failed []overlay.Address
	for _, inst := range n.stack {
		for k, nd := range inst.def.neighbors { // declaration order
			if !nd.failDetect {
				continue
			}
			l := inst.nbrs[k]
			acts := n.hot.sweepActs[:0]
			for _, nb := range l.entries {
				h, ok := n.heard[nb.Addr]
				if !ok {
					// Never heard: start the clock at first sight.
					n.heard[nb.Addr] = peerHeard{at: now}
					continue
				}
				silence := now.Sub(h.at)
				switch {
				case silence > n.failAfter && h.probed:
					// Probed and still silent: dead. A failure verdict
					// requires an unanswered probe, not just a stale
					// heard time: protocols re-add live peers whose
					// timestamp predates their membership (successor
					// lists rebuilt from a remote node's view do this
					// every stabilize round), and those must get a probe
					// cycle — not an instant, perpetually repeating
					// failure — before the error transition fires.
					acts = append(acts, sweepAct{nb.Addr, true})
				case silence > n.hbAfter && !h.probed:
					acts = append(acts, sweepAct{nb.Addr, false})
				}
			}
			n.hot.sweepActs = acts[:0]
			for _, a := range acts {
				if !a.fail {
					n.heard[a.addr] = peerHeard{at: n.heard[a.addr].at, probed: true}
					_ = n.hb.Send(a.addr, hbRequestFrame)
					continue
				}
				l.Remove(a.addr)
				failed = append(failed, a.addr)
				inst.counters.Failures.Inc()
				if inst.tracing(TraceLow) {
					inst.trace(TraceLow, "failure of %v detected on %s", a.addr, l.Name())
				}
				inst.dispatchAPI(&APICall{Kind: overlay.APIError, Failed: a.addr})
				if h := n.handlers.Failure; h != nil {
					h(inst.def.name, a.addr)
				}
			}
		}
	}
	// The verdicts consume the probes only after every list is swept,
	// so a peer monitored by several lists (or stacked instances) fails
	// on all of them in the same sweep; if it is ever re-added (a
	// revived node resurfacing in a successor list), it gets a fresh
	// probe cycle instead of failing on a stale flag forever.
	for _, a := range failed {
		n.heard[a] = peerHeard{at: n.heard[a].at}
	}
	n.sweepTimer.Reset(n.sweepEvery)
}
