package transport

import (
	"bytes"
	"encoding/binary"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/substrate"
)

// Reliable-transport tuning. The TCP discipline follows the classic Jacobson
// /Karels algorithms: slow start, AIMD congestion avoidance, fast retransmit
// on three duplicate ACKs, exponential RTO backoff with Karn's sampling
// rule. SWP keeps a fixed window and go-back-N recovery: reliable but
// congestion-unfriendly, as §3.1 defines it.
const (
	relHeaderLen = 20 // [boot u64][gen u32][offset u64]

	initialRTO = 1 * time.Second
	minRTO     = 100 * time.Millisecond
	maxRTO     = 60 * time.Second

	initialSSThresh = 64 << 10
	maxFlightCap    = 256 << 10 // receive-window surrogate
	sendQueueCap    = 8 << 20   // per-connection unsent+unacked cap
	oooCap          = 512 << 10 // out-of-order buffer cap per connection
)

// reliable implements both the TCP and SWP disciplines over datagrams.
type reliable struct {
	name  string
	id    uint8
	mux   *Mux
	tcp   bool // true: congestion-controlled; false: fixed-window SWP
	fixed int  // SWP window in segments

	conns map[overlay.Address]*conn
	stats Stats
}

type conn struct {
	t    *reliable
	peer overlay.Address

	// Sender half. buf[head:] holds the byte stream [sndUna, ...): an ack
	// advances head, and Send reclaims the dead prefix when it needs room.
	sndUna, sndNxt uint64
	buf            []byte
	head           int
	cwnd, ssthresh float64
	dupAcks        int

	rto          time.Duration
	srtt, rttvar time.Duration
	// rtxTimer runs onTimeout. The first arm builds it and every later one
	// re-arms it, so the conn keeps one timer for life; rtxArmed says whether
	// it counts as pending.
	rtxTimer substrate.Timer
	rtxArmed bool

	// NewReno fast-recovery state.
	inRecovery bool
	recover    uint64 // sndNxt when loss was detected

	// One RTT sample in flight (Karn's algorithm): never sample an offset
	// at or below rexmitHigh, the highest offset ever retransmitted.
	sampling   bool
	sampleOfs  uint64
	sampleAt   time.Time
	rexmitHigh uint64

	// Receiver half. rbuf holds the in-order bytes not yet parsed into whole
	// frames: storage the connection owns and reuses. ooo holds copies of
	// segments that arrived ahead of rcvNxt; the first such segment makes it.
	rcvNxt   uint64
	rbuf     []byte
	ooo      map[uint64][]byte
	oooBytes int

	// Stream-incarnation tracking. localGen numbers this side's outgoing
	// byte stream on the connection: it bumps whenever the stream restarts
	// at offset zero mid-conversation (after detecting a peer reboot), so
	// the receiver can tell a fresh stream from stale retransmissions of a
	// dead one — the sender's boot alone cannot, because a surviving
	// node's boot never changes. (peerBoot, peerGen) is the newest stream
	// identity observed from the peer.
	localGen  uint32
	peerBoot  uint64
	peerGen   uint32
	peerKnown bool
}

// resetSend restarts the outgoing stream at offset zero. Frames buffered
// but unacknowledged are lost, exactly as a TCP RST would lose them;
// protocols recover through their own soft-state refresh.
func (c *conn) resetSend() {
	mss := float64(c.t.mss())
	c.sndUna, c.sndNxt = 0, 0
	c.buf, c.head = nil, 0
	c.cwnd, c.ssthresh = 2*mss, initialSSThresh
	c.dupAcks = 0
	c.rto, c.srtt, c.rttvar = initialRTO, 0, 0
	c.inRecovery = false
	c.recover = 0
	c.sampling = false
	c.rexmitHigh = 0
	c.stopTimer()
}

// resetRecv discards all receive-side state, including out-of-order
// segments buffered from a dead peer stream — without this, stale
// retransmissions captured before the peer's stream reset would later be
// spliced into the fresh stream as garbage.
func (c *conn) resetRecv() {
	c.rcvNxt = 0
	c.rbuf = c.rbuf[:0]
	c.ooo = nil
	c.oooBytes = 0
}

// checkPeer validates an incoming (boot, gen) stream identity and reports
// whether the packet should be processed.
//
//   - A newer boot means the peer node rebooted: both halves reset and our
//     own stream restarts under a bumped generation (the reborn peer has no
//     memory of it).
//   - A newer generation under the same boot means the peer restarted just
//     its outgoing stream (it detected *our* reboot): only the receive half
//     resets. No generation bump — our stream is intact — which is what
//     keeps mutual resets from ping-ponging forever.
//   - An older identity is a relic of a dead incarnation and is dropped.
//
// Boot stamps are full nanosecond readings, strictly increasing across
// restarts; generations under one boot only ever increase, so plain
// comparisons suffice.
func (c *conn) checkPeer(boot uint64, gen uint32) bool {
	if !c.peerKnown {
		c.peerBoot, c.peerGen, c.peerKnown = boot, gen, true
		return true
	}
	if boot == c.peerBoot && gen == c.peerGen {
		return true
	}
	if boot > c.peerBoot {
		c.resetRecv()
		c.resetSend()
		c.localGen++
		c.peerBoot, c.peerGen = boot, gen
		return true
	}
	if boot == c.peerBoot && gen > c.peerGen {
		c.resetRecv()
		c.peerGen = gen
		return true
	}
	return false
}

func newReliable(name string, m *Mux, tcp bool, fixedWindow int) *reliable {
	return &reliable{name: name, mux: m, tcp: tcp, fixed: fixedWindow,
		conns: make(map[overlay.Address]*conn)}
}

func (r *reliable) Name() string { return r.name }
func (r *reliable) Kind() overlay.TransportKind {
	if r.tcp {
		return overlay.TCP
	}
	return overlay.SWP
}
func (r *reliable) setID(id uint8) { r.id = id }

func (r *reliable) Stats() Stats {
	r.mux.mu.Lock()
	defer r.mux.mu.Unlock()
	s := r.stats
	var queued uint64
	for _, c := range r.conns {
		queued += uint64(len(c.queued()))
	}
	s.SegmentsQueued = queued
	return s
}

func (r *reliable) QueuedBytes(dst overlay.Address) int {
	r.mux.mu.Lock()
	defer r.mux.mu.Unlock()
	if c, ok := r.conns[dst]; ok {
		return len(c.queued())
	}
	return 0
}

func (r *reliable) conn(peer overlay.Address) *conn {
	c, ok := r.conns[peer]
	if !ok {
		mss := float64(r.mss())
		c = &conn{
			t: r, peer: peer,
			cwnd:     2 * mss,
			ssthresh: initialSSThresh,
			rto:      initialRTO,
		}
		r.conns[peer] = c
	}
	return c
}

func (r *reliable) mss() int { return r.mux.mss(relHeaderLen) }

// queued returns the unacknowledged and unsent bytes: the stream from sndUna.
func (c *conn) queued() []byte { return c.buf[c.head:] }

// Send frames the payload onto the connection's byte stream and pumps.
func (r *reliable) Send(dst overlay.Address, frame []byte) error {
	if len(frame) > MaxFrame {
		return ErrFrameTooLarge
	}
	r.mux.mu.Lock()
	defer r.mux.mu.Unlock()
	c := r.conn(dst)
	need := 4 + len(frame)
	if len(c.queued())+need > sendQueueCap {
		return ErrQueueFull
	}
	r.stats.FramesSent++
	r.stats.BytesSent += uint64(len(frame))
	if len(c.buf)+need > cap(c.buf) {
		live := len(c.buf) - c.head
		if room := cap(c.buf) - live - need; c.head > 0 && room >= 0 && 2*room >= live {
			// Reclaim the acknowledged prefix instead of growing when that
			// leaves room for at least half the live bytes again: a move
			// copies at most twice the bytes later Sends append into it.
			c.buf = c.buf[:copy(c.buf, c.buf[c.head:])]
		} else {
			// Grow to twice what will be live, header and frame included,
			// carrying over only the live bytes: a ramping flight's array
			// at least doubles per growth, and acked bytes are never copied.
			buf := make([]byte, live, 2*(live+need))
			copy(buf, c.buf[c.head:])
			c.buf = buf
		}
		c.head = 0
	}
	c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(len(frame)))
	c.buf = append(c.buf, frame...)
	c.pump()
	return nil
}

// window returns the sender's permitted flight in bytes.
func (c *conn) window() int {
	if c.t.tcp {
		w := int(c.cwnd)
		if w > maxFlightCap {
			w = maxFlightCap
		}
		if w < c.t.mss() {
			w = c.t.mss()
		}
		return w
	}
	return c.t.fixed * c.t.mss()
}

// pump transmits as much unsent data as the window permits.
func (c *conn) pump() {
	mss := c.t.mss()
	queued := c.queued()
	for {
		flight := int(c.sndNxt - c.sndUna)
		avail := len(queued) - flight
		if avail <= 0 || flight >= c.window() {
			break
		}
		n := mss
		if n > avail {
			n = avail
		}
		if room := c.window() - flight; n > room {
			n = room
		}
		if n <= 0 {
			break
		}
		off := c.sndNxt
		c.sendSegment(off, queued[flight:flight+n])
		c.sndNxt += uint64(n)
		if !c.sampling && off >= c.rexmitHigh {
			c.sampling = true
			c.sampleOfs = off + uint64(n)
			c.sampleAt = c.t.mux.clock.Now()
		}
	}
	c.armTimer()
}

func (c *conn) sendSegment(offset uint64, payload []byte) {
	var hdr [relHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[0:], c.t.mux.boot)
	binary.BigEndian.PutUint32(hdr[8:], c.localGen)
	binary.BigEndian.PutUint64(hdr[12:], offset)
	c.t.stats.Segments++
	_ = c.t.mux.emit(c.t.id, kindRelData, c.peer, hdr[:], payload)
}

func (c *conn) armTimer() {
	if c.sndNxt == c.sndUna {
		c.stopTimer()
		return
	}
	if c.rtxArmed {
		return
	}
	c.rtxArmed = true
	if c.rtxTimer == nil {
		c.rtxTimer = c.t.mux.clock.After(c.rto, c.onTimeout)
		return
	}
	c.rtxTimer.Reset(c.rto)
}

func (c *conn) stopTimer() {
	if c.rtxArmed {
		c.rtxTimer.Stop()
		c.rtxArmed = false
	}
}

func (c *conn) resetTimer() {
	c.stopTimer()
	c.armTimer()
}

func (c *conn) onTimeout() {
	m := c.t.mux
	m.mu.Lock()
	defer m.mu.Unlock()
	c.rtxArmed = false
	flight := int(c.sndNxt - c.sndUna)
	if flight <= 0 {
		return
	}
	mss := c.t.mss()
	c.t.stats.Retransmits++
	c.sampling = false
	if c.rexmitHigh < c.sndNxt {
		c.rexmitHigh = c.sndNxt
	}
	if c.t.tcp {
		// Tahoe-style recovery: collapse the window, roll snd_nxt back, and
		// let slow start retransmit the flight; exponential RTO backoff.
		c.rto *= 2
		if c.rto > maxRTO {
			c.rto = maxRTO
		}
		c.ssthresh = float64(maxInt(flight/2, 2*mss))
		c.cwnd = float64(mss)
		c.inRecovery = false
		c.sndNxt = c.sndUna
		c.pump()
		return
	}
	// SWP go-back-N: retransmit the whole window and keep the timeout
	// constant — the protocol is reliable but deliberately does not back
	// off, which is what makes it congestion-unfriendly.
	queued := c.queued()
	for off := 0; off < flight; off += mss {
		n := minInt(mss, flight-off)
		c.sendSegment(c.sndUna+uint64(off), queued[off:off+n])
		if off > 0 {
			c.t.stats.Retransmits++
		}
	}
	c.armTimer()
}

func (r *reliable) handle(src overlay.Address, kind uint8, body []byte) {
	switch kind {
	case kindRelData:
		r.handleData(src, body)
	case kindRelAck:
		r.handleAck(src, body)
	}
}

func (r *reliable) handleData(src overlay.Address, body []byte) {
	if len(body) < relHeaderLen {
		return
	}
	boot := binary.BigEndian.Uint64(body[0:])
	gen := binary.BigEndian.Uint32(body[8:])
	offset := binary.BigEndian.Uint64(body[12:])
	seg := body[relHeaderLen:]
	c := r.conn(src)
	if !c.checkPeer(boot, gen) {
		return
	}

	var lent []byte // the new in-order bytes, when they can be parsed in place
	if offset <= c.rcvNxt {
		// In-order (or partially duplicate) segment: take the new tail.
		if offset+uint64(len(seg)) > c.rcvNxt {
			tail := seg[c.rcvNxt-offset:]
			c.rcvNxt = offset + uint64(len(seg))
			if len(c.rbuf) == 0 && len(c.ooo) == 0 {
				lent = tail // nothing to join it to: frames are lent from the datagram
			} else {
				c.rbuf = append(c.rbuf, tail...)
				c.drainOOO()
			}
		}
	} else if c.oooBytes+len(seg) <= oooCap {
		if _, dup := c.ooo[offset]; !dup {
			if c.ooo == nil {
				c.ooo = make(map[uint64][]byte)
			}
			c.ooo[offset] = bytes.Clone(seg) // the datagram is only lent
			c.oooBytes += len(seg)
		}
	}
	c.sendAck()
	if lent != nil {
		c.parseFrames(lent)
	} else {
		c.parseFrames(c.rbuf)
	}
}

func (c *conn) drainOOO() {
	for {
		seg, ok := c.ooo[c.rcvNxt]
		if ok {
			delete(c.ooo, c.rcvNxt)
			c.oooBytes -= len(seg)
			c.rbuf = append(c.rbuf, seg...)
			c.rcvNxt += uint64(len(seg))
			continue
		}
		// Evict segments the cumulative point has passed (covered by a
		// larger retransmitted segment).
		advanced := false
		for off, seg := range c.ooo {
			if off < c.rcvNxt {
				delete(c.ooo, off)
				c.oooBytes -= len(seg)
				if off+uint64(len(seg)) > c.rcvNxt {
					c.rbuf = append(c.rbuf, seg[c.rcvNxt-off:]...)
					c.rcvNxt = off + uint64(len(seg))
					advanced = true
				}
			}
		}
		if !advanced {
			return
		}
	}
}

// sendAck acknowledges the peer's stream. Besides the acker's own stream
// identity, the ack echoes which peer stream incarnation the cumulative
// offset applies to, so a reborn sender can discard acknowledgements aimed
// at its previous life instead of mistaking them for window updates.
func (c *conn) sendAck() {
	var body [32]byte
	binary.BigEndian.PutUint64(body[0:], c.t.mux.boot)
	binary.BigEndian.PutUint32(body[8:], c.localGen)
	binary.BigEndian.PutUint64(body[12:], c.peerBoot)
	binary.BigEndian.PutUint32(body[20:], c.peerGen)
	binary.BigEndian.PutUint64(body[24:], c.rcvNxt)
	c.t.stats.AcksSent++
	_ = c.t.mux.emit(c.t.id, kindRelAck, c.peer, body[:], nil)
}

// parseFrames delivers the whole length-prefixed frames at the front of
// stream — c.rbuf, or a datagram's new in-order bytes when nothing was
// buffered — each lent to the upcall, and then keeps the partial frame that
// follows them at the front of c.rbuf. Only the endpoint's receive goroutine
// touches rbuf (simnet runs an endpoint on one shard, livenet reads each
// endpoint on one goroutine), so compacting it after the upcalls is safe even
// though Mux.deliver drops m.mu for them: nothing appends to it meanwhile,
// and a lent frame is dead once its upcall returns.
func (c *conn) parseFrames(stream []byte) {
	for len(stream) >= 4 {
		n := int(binary.BigEndian.Uint32(stream))
		if len(stream) < 4+n {
			break
		}
		f := stream[4 : 4+n : 4+n]
		stream = stream[4+n:]
		c.t.stats.FramesRecv++
		c.t.stats.BytesRecv += uint64(len(f))
		c.t.mux.deliver(c.t.name, c.peer, f)
	}
	c.rbuf = append(c.rbuf[:0], stream...) // may overlap when stream is rbuf's tail: append moves, it does not clobber
}

func (r *reliable) handleAck(src overlay.Address, body []byte) {
	if len(body) < 32 {
		return
	}
	boot := binary.BigEndian.Uint64(body[0:])
	gen := binary.BigEndian.Uint32(body[8:])
	echoBoot := binary.BigEndian.Uint64(body[12:])
	echoGen := binary.BigEndian.Uint32(body[20:])
	cum := binary.BigEndian.Uint64(body[24:])
	c := r.conn(src)
	if !c.checkPeer(boot, gen) {
		return
	}
	if echoBoot != r.mux.boot || echoGen != c.localGen {
		return // acknowledges a dead incarnation of our stream
	}
	mss := float64(r.mss())
	switch {
	case cum > c.sndUna && cum <= max(c.sndNxt, c.rexmitHigh):
		// After a timeout rolled snd_nxt back, a receiver that held
		// out-of-order data acknowledges past it — but never past
		// rexmitHigh: only bytes below that were ever sent.
		c.sndNxt = max(c.sndNxt, cum)
		acked := cum - c.sndUna
		c.head += int(acked)
		if c.head == len(c.buf) {
			c.buf, c.head = c.buf[:0], 0
		}
		c.sndUna = cum
		c.dupAcks = 0
		if c.sampling && cum >= c.sampleOfs {
			c.updateRTT(r.mux.clock.Now().Sub(c.sampleAt))
			c.sampling = false
		}
		if r.tcp {
			if c.inRecovery && cum < c.recover {
				// NewReno partial ACK: the next hole is now at snd_una;
				// retransmit it immediately rather than waiting out an RTO.
				if c.rexmitHigh < c.sndNxt {
					c.rexmitHigh = c.sndNxt
				}
				n := minInt(int(mss), int(c.sndNxt-c.sndUna))
				if n > 0 {
					r.stats.Retransmits++
					c.sendSegment(c.sndUna, c.queued()[:n])
				}
			} else {
				c.inRecovery = false
				if c.cwnd < c.ssthresh {
					c.cwnd += float64(acked) // slow start
				} else {
					c.cwnd += mss * float64(acked) / c.cwnd // AIMD increase
				}
			}
		}
		c.resetTimer()
		c.pump()
	case cum == c.sndUna && c.sndNxt > c.sndUna:
		c.dupAcks++
		if r.tcp && c.dupAcks == 3 && !c.inRecovery {
			// Fast retransmit + NewReno fast recovery.
			flight := int(c.sndNxt - c.sndUna)
			c.ssthresh = float64(maxInt(flight/2, 2*int(mss)))
			c.cwnd = c.ssthresh
			c.inRecovery = true
			c.recover = c.sndNxt
			c.rexmitHigh = c.sndNxt
			c.sampling = false
			n := minInt(int(mss), flight)
			r.stats.Retransmits++
			c.sendSegment(c.sndUna, c.queued()[:n])
		}
	}
}

func (c *conn) updateRTT(rtt time.Duration) {
	if rtt <= 0 {
		rtt = time.Millisecond
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		diff := c.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

func (r *reliable) stopTimers() {
	for _, c := range r.conns {
		c.stopTimer()
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
