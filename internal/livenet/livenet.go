// Package livenet is the live-deployment substrate: the same Endpoint and
// Clock interfaces the simnet emulator provides, implemented over real UDP
// sockets and the wall clock. Running a node over livenet instead of simnet
// changes nothing in any protocol — the paper's claim that MACEDON code
// "runs unmodified in live Internet settings" (§1) holds by construction,
// because the engine only sees the substrate interfaces.
//
// Beyond bare sockets, livenet carries the deployment subsystem's network
// dynamics: per-peer shaping filters (blackhole, random loss, added latency)
// that `macedon deploy` drives to realize partitions, link failures, and
// degradations from the same scenario files the emulator runs
// (docs/deploy.md). Shaping is applied on the outbound path; a partition is
// realized by installing symmetric drop rules on both sides.
package livenet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/substrate"
)

// MTU is the largest datagram payload livenet transmits.
const MTU = 1400

// Shaping is one per-peer traffic rule, applied to datagrams leaving this
// process toward the peer. The zero value passes traffic through untouched.
type Shaping struct {
	// Drop blackholes every datagram (partitions, link_down, node_down).
	Drop bool
	// Loss drops each datagram independently with this probability.
	Loss float64
	// Delay adds one-way latency before the datagram is written. Delayed
	// datagrams may reorder, exactly as UDP permits.
	Delay time.Duration
}

// pass reports whether the rule is a no-op.
func (s Shaping) pass() bool { return !s.Drop && s.Loss == 0 && s.Delay == 0 }

// Stats counts the network's traffic since creation. Loads are atomic;
// the counters are monotone.
type Stats struct {
	// Sent counts datagrams accepted for transmission (after shaping).
	Sent uint64
	// Recv counts datagrams delivered to receive callbacks.
	Recv uint64
	// BytesSent and BytesRecv count payload bytes the same way.
	BytesSent, BytesRecv uint64
	// ShapeDrops counts datagrams blackholed by a Drop rule; LossDrops
	// counts datagrams lost to a Loss rule.
	ShapeDrops, LossDrops uint64
}

// Network maps overlay addresses onto UDP ports of one host (or, with an
// address table, onto arbitrary UDP endpoints).
type Network struct {
	mu       sync.Mutex
	basePort int
	host     string
	eps      map[overlay.Address]*endpoint
	resolver func(a overlay.Address) string
	closed   bool

	// Shaping state: per-peer rules plus an optional default applied to
	// peers without an explicit rule. Consulted on every outbound datagram.
	rules    map[overlay.Address]Shaping
	defRule  *Shaping
	shapeRng *rand.Rand

	sent, recv, bytesSent, bytesRecv, shapeDrops, lossDrops atomic.Uint64
}

// Option configures the network.
type Option func(*Network)

// WithTable resolves addresses through an explicit addr→"host:port" table:
// how `macedon deploy` agents reach a fleet whose overlay addresses come
// from the emulated topology rather than a dense port range. Addresses
// absent from the table fall back to host:basePort+addr.
func WithTable(table map[overlay.Address]string) Option {
	return func(n *Network) {
		cp := make(map[overlay.Address]string, len(table))
		for a, hp := range table {
			cp[a] = hp
		}
		base := n.resolver
		n.resolver = func(a overlay.Address) string {
			if hp, ok := cp[a]; ok {
				return hp
			}
			return base(a)
		}
	}
}

// New creates a live network mapping address a to host:basePort+a.
func New(host string, basePort int, opts ...Option) *Network {
	n := &Network{
		basePort: basePort,
		host:     host,
		eps:      make(map[overlay.Address]*endpoint),
		rules:    make(map[overlay.Address]Shaping),
		shapeRng: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	n.resolver = func(a overlay.Address) string {
		return fmt.Sprintf("%s:%d", n.host, n.basePort+int(a))
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Now implements substrate.Clock with the wall clock.
func (n *Network) Now() time.Time { return time.Now() }

// liveTimer wraps time.Timer as a substrate.Timer.
type liveTimer struct{ t *time.Timer }

func (lt liveTimer) Stop() bool { return lt.t.Stop() }

func (lt liveTimer) Reset(d time.Duration) { lt.t.Reset(d) }

// After implements substrate.Clock with real timers.
func (n *Network) After(d time.Duration, fn func()) substrate.Timer {
	return liveTimer{t: time.AfterFunc(d, fn)}
}

// Endpoint binds (or returns) the UDP socket for an address.
func (n *Network) Endpoint(addr overlay.Address) (substrate.Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("livenet: network is closed")
	}
	if ep, ok := n.eps[addr]; ok {
		return ep, nil
	}
	laddr, err := net.ResolveUDPAddr("udp", n.resolver(addr))
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("livenet: bind %v: %w", addr, err)
	}
	ep := &endpoint{net: n, addr: addr, conn: conn}
	n.eps[addr] = ep
	go ep.readLoop()
	return ep, nil
}

// Close shuts every socket down. Idempotent; the network is unusable
// afterwards.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*endpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.eps = make(map[overlay.Address]*endpoint)
	n.mu.Unlock()
	for _, ep := range eps {
		ep.close()
	}
}

// SetPeerShaping installs (or, for a zero rule, removes) the outbound
// shaping rule toward one peer.
func (n *Network) SetPeerShaping(peer overlay.Address, s Shaping) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s.pass() {
		delete(n.rules, peer)
		return
	}
	n.rules[peer] = s
}

// SetDefaultShaping installs the rule applied to peers without an explicit
// rule; nil removes it. A default Drop rule makes the node's host
// unreachable (the scenario engine's node_down).
func (n *Network) SetDefaultShaping(s *Shaping) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s == nil || s.pass() {
		n.defRule = nil
		return
	}
	cp := *s
	n.defRule = &cp
}

// ClearShaping removes every rule.
func (n *Network) ClearShaping() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules = make(map[overlay.Address]Shaping)
	n.defRule = nil
}

// shapeFor resolves the effective rule toward dst and rolls the loss dice
// under the lock (the PRNG is shared).
func (n *Network) shapeFor(dst overlay.Address) (drop bool, loss bool, delay time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	rule, ok := n.rules[dst]
	if !ok {
		if n.defRule == nil {
			return false, false, 0
		}
		rule = *n.defRule
	}
	if rule.Drop {
		return true, false, 0
	}
	if rule.Loss > 0 && n.shapeRng.Float64() < rule.Loss {
		return false, true, 0
	}
	return false, false, rule.Delay
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	return Stats{
		Sent:       n.sent.Load(),
		Recv:       n.recv.Load(),
		BytesSent:  n.bytesSent.Load(),
		BytesRecv:  n.bytesRecv.Load(),
		ShapeDrops: n.shapeDrops.Load(),
		LossDrops:  n.lossDrops.Load(),
	}
}

type endpoint struct {
	net  *Network
	addr overlay.Address
	conn *net.UDPConn

	mu     sync.Mutex
	recv   func(src overlay.Address, payload []byte)
	closed bool
}

func (e *endpoint) Addr() overlay.Address { return e.addr }
func (e *endpoint) MTU() int              { return MTU }

// close is idempotent: the socket closes once, later calls are no-ops.
func (e *endpoint) close() {
	e.mu.Lock()
	was := e.closed
	e.closed = true
	e.mu.Unlock()
	if !was {
		_ = e.conn.Close()
	}
}

// wire format: [src addr u32][payload...]
func (e *endpoint) Send(dst overlay.Address, payload []byte) error {
	if len(payload) > MTU {
		return fmt.Errorf("livenet: datagram of %d bytes exceeds MTU %d", len(payload), MTU)
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("livenet: endpoint %v is closed", e.addr)
	}
	drop, loss, delay := e.net.shapeFor(dst)
	if drop {
		e.net.shapeDrops.Add(1)
		return nil // shaped away, like any other network loss: not an error
	}
	if loss {
		e.net.lossDrops.Add(1)
		return nil
	}
	raddr, err := net.ResolveUDPAddr("udp", e.net.resolver(dst))
	if err != nil {
		return err
	}
	buf := make([]byte, 4+len(payload))
	u := uint32(e.addr)
	buf[0], buf[1], buf[2], buf[3] = byte(u>>24), byte(u>>16), byte(u>>8), byte(u)
	copy(buf[4:], payload)
	if delay > 0 {
		// Shaped latency: the copy above means the caller may reuse payload.
		time.AfterFunc(delay, func() { e.write(buf, raddr) })
		return nil
	}
	return e.write(buf, raddr)
}

func (e *endpoint) write(buf []byte, raddr *net.UDPAddr) error {
	_, err := e.conn.WriteToUDP(buf, raddr)
	if err == nil {
		e.net.sent.Add(1)
		e.net.bytesSent.Add(uint64(len(buf) - 4))
	}
	return err
}

func (e *endpoint) SetRecv(fn func(src overlay.Address, payload []byte)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.recv != nil {
		panic(fmt.Sprintf("livenet: receive handler for %v set twice", e.addr))
	}
	e.recv = fn
}

func (e *endpoint) readLoop() {
	buf := make([]byte, MTU+4)
	for {
		n, _, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		if n < 4 {
			continue
		}
		src := overlay.Address(uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3]))
		e.mu.Lock()
		fn := e.recv
		e.mu.Unlock()
		if fn != nil {
			e.net.recv.Add(1)
			e.net.bytesRecv.Add(uint64(n - 4))
			// Lent straight out of the read buffer, which the next read
			// reuses (substrate.Endpoint.SetRecv): one goroutine per
			// endpoint reads and delivers, so nothing copies on the way in.
			fn(src, buf[4:n:n])
		}
	}
}
