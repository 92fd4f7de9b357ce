// Package transport implements the MACEDON transport subsystem of §3.1:
// named transport instances multiplexed over one datagram endpoint, in the
// three disciplines the language offers — TCP (reliable, in-order,
// congestion-friendly), SWP (reliable, in-order, congestion-unfriendly
// sliding window), and UDP (unreliable). A protocol binds each message type
// to a transport instance; defining several instances of the same kind gives
// the per-priority channels the paper uses to defeat head-of-line blocking.
package transport

import (
	"errors"
	"fmt"
	"sync"

	"macedon/internal/overlay"
	"macedon/internal/substrate"
)

// MaxFrame is the largest message frame a transport accepts (reliable
// transports segment it; UDP fragments it).
const MaxFrame = 4 << 20

// Errors returned by transports.
var (
	ErrFrameTooLarge    = errors.New("transport: frame exceeds MaxFrame")
	ErrUnknownTransport = errors.New("transport: unknown transport name")
	ErrQueueFull        = errors.New("transport: connection send queue full")
)

// RecvFunc receives a reassembled frame from a peer on a named transport.
// The frame is lent, as the substrate lends a datagram: it is valid until
// the callback returns, after which the transport or the substrate reuses
// its storage. The receiver must not write into it and copies what it keeps.
type RecvFunc func(transport string, src overlay.Address, frame []byte)

// Stats counts per-transport activity.
type Stats struct {
	FramesSent     uint64
	FramesRecv     uint64
	BytesSent      uint64 // frame payload bytes accepted for sending
	BytesRecv      uint64
	Segments       uint64 // datagrams emitted, acks excluded
	Retransmits    uint64
	AcksSent       uint64
	FragsDropped   uint64 // UDP reassembly drops
	SegmentsQueued uint64 // currently buffered unacked/unsent bytes (gauge)
}

// Transport is one named channel to every peer.
type Transport interface {
	// Name returns the instance name from the specification, e.g. "HIGHEST".
	Name() string
	// Kind returns the transport discipline.
	Kind() overlay.TransportKind
	// Send queues one frame toward dst. Reliable kinds deliver it exactly
	// once and in order relative to other frames on the same instance; UDP
	// delivers it at most once. Send copies what it keeps: the caller may
	// reuse frame as soon as it returns.
	Send(dst overlay.Address, frame []byte) error
	// QueuedBytes reports bytes buffered toward dst (unsent plus unacked):
	// the observable form of the paper's "blocked transport" condition.
	QueuedBytes(dst overlay.Address) int
	// Stats returns a snapshot of the instance's counters.
	Stats() Stats
}

// Mux owns the endpoint and demultiplexes datagrams to transport instances.
// All methods are safe for concurrent use; under the simulator everything
// runs on the event goroutine and the lock is uncontended.
type Mux struct {
	mu    sync.Mutex
	ep    substrate.Endpoint
	clock substrate.Clock
	boot  uint64 // incarnation stamp carried by reliable segments

	transports []muxMember // indexed by transport id; a node defines a handful
	recv       RecvFunc
	closed     bool
	out        datagramScratch // a named field: embedding would promote StateCopyOpaque to Mux
}

// datagramScratch is the buffer emit builds each outgoing datagram in. The
// endpoint copies on Send, so it is garbage between datagrams and
// checkpoints skip it.
type datagramScratch struct{ buf []byte }

// StateCopyOpaque keeps the send scratch out of checkpoint images.
func (*datagramScratch) StateCopyOpaque() {}

type muxMember interface {
	Transport
	setID(id uint8)
	handle(src overlay.Address, kind uint8, body []byte)
}

// NewMux wires a mux onto an endpoint. The mux installs itself as the
// endpoint's receive handler.
//
// The mux stamps its boot time (full nanosecond clock reading at
// construction) onto every reliable segment: one mux is one incarnation of
// a node, and a peer that crashes and restarts builds a new mux whose
// byte-stream offsets restart at zero. Without the stamp, the surviving
// side would forever discard the new stream as duplicate data and ignore
// its acknowledgements as out of window — the reliable-transport
// equivalent of talking to a ghost. The stamp plays the role TCP's initial
// sequence numbers and RST play at connection establishment; nanosecond
// resolution makes collision between two incarnations impossible (the
// simulated clock is strictly later at any later event).
func NewMux(ep substrate.Endpoint, clock substrate.Clock) *Mux {
	m := &Mux{ep: ep, clock: clock, boot: uint64(clock.Now().UnixNano())}
	ep.SetRecv(m.onDatagram)
	return m
}

// SetRecv installs the frame delivery callback. Frames arriving before a
// handler is installed are dropped.
func (m *Mux) SetRecv(fn RecvFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recv = fn
}

// Addr returns the local address.
func (m *Mux) Addr() overlay.Address { return m.ep.Addr() }

// Close tears down timers and silently drops further traffic.
func (m *Mux) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	for _, t := range m.transports {
		if r, ok := t.(*reliable); ok {
			r.stopTimers()
		}
	}
}

func (m *Mux) add(name string, t muxMember) Transport {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, o := range m.transports {
		if o.Name() == name {
			panic(fmt.Sprintf("transport: instance %q defined twice", name))
		}
	}
	if len(m.transports) >= 255 {
		panic("transport: too many transport instances")
	}
	id := uint8(len(m.transports))
	m.transports = append(m.transports, t)
	t.setID(id)
	return t
}

// AddUDP creates an unreliable instance.
func (m *Mux) AddUDP(name string) Transport {
	return m.add(name, &udp{name: name, mux: m})
}

// AddTCP creates a reliable congestion-controlled instance.
func (m *Mux) AddTCP(name string) Transport {
	r := newReliable(name, m, true)
	return m.add(name, r)
}

// AddSWP creates a reliable fixed-window instance: a sliding window of
// swpWindow segments.
func (m *Mux) AddSWP(name string) Transport {
	r := newReliable(name, m, false)
	return m.add(name, r)
}

// ByName returns the named transport instance.
func (m *Mux) ByName(name string) (Transport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.transports {
		if t.Name() == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownTransport, name)
}

// onDatagram is the endpoint receive path: [tid u8][kind u8][body].
func (m *Mux) onDatagram(src overlay.Address, payload []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || len(payload) < 2 {
		return
	}
	tid := payload[0]
	if int(tid) >= len(m.transports) {
		return // stale or corrupt; drop like an unknown port
	}
	m.transports[tid].handle(src, payload[1], payload[2:])
}

// deliver hands a reassembled frame up. Caller holds m.mu.
func (m *Mux) deliver(tname string, src overlay.Address, frame []byte) {
	if m.recv == nil {
		return
	}
	fn := m.recv
	// Release the lock for the upcall: the engine may immediately send,
	// which re-enters the mux.
	m.mu.Unlock()
	fn(tname, src, frame)
	m.mu.Lock()
}

// emit sends one datagram: the transport header, the discipline's own
// header (may be nil), then the payload, built in the mux's one scratch
// buffer. The endpoint copies what it keeps, so the scratch is free again
// when Send returns and a datagram costs no allocation. Caller holds m.mu.
func (m *Mux) emit(tid uint8, kind uint8, dst overlay.Address, hdr, payload []byte) error {
	if m.closed {
		return nil
	}
	buf := append(m.out.buf[:0], tid, kind)
	buf = append(buf, hdr...)
	buf = append(buf, payload...)
	m.out.buf = buf
	return m.ep.Send(dst, buf)
}

// mss returns the usable segment payload size for the given header size.
func (m *Mux) mss(headerLen int) int { return m.ep.MTU() - 2 - headerLen }
