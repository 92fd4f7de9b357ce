package transport

import (
	"bytes"
	"encoding/binary"
	"time"

	"macedon/internal/overlay"
)

// Datagram kinds within a transport instance.
const (
	kindUDPSingle = 0 // whole frame in one datagram
	kindUDPFrag   = 1 // [msgID u32][frag u16][nfrags u16][chunk]
	kindRelData   = 2 // [boot u64][gen u32][offset u64][payload]
	kindRelAck    = 3 // [boot u64][gen u32][echoBoot u64][echoGen u32][cumAck u64]
)

const fragHeaderLen = 8
const fragTimeout = 30 * time.Second
const maxPendingReassemblies = 64

// udp is the unreliable discipline: datagrams map straight onto the
// substrate, with transparent fragmentation for frames above the MTU.
// Fragment loss drops the whole frame, as IP fragmentation would.
type udp struct {
	name  string
	id    uint8
	mux   *Mux
	stats Stats

	nextMsgID uint32
	reasm     map[overlay.Address]map[uint32]*reassembly
}

// reassembly collects one fragmented frame. parts are copies of the
// fragments' chunks (a datagram is only lent); got records arrival, because
// an empty chunk is a fragment too.
type reassembly struct {
	parts    [][]byte
	got      []bool
	missing  int
	deadline time.Time
}

func (u *udp) Name() string                    { return u.name }
func (u *udp) Kind() overlay.TransportKind     { return overlay.UDP }
func (u *udp) setID(id uint8)                  { u.id = id }
func (u *udp) QueuedBytes(overlay.Address) int { return 0 }

func (u *udp) Stats() Stats {
	u.mux.mu.Lock()
	defer u.mux.mu.Unlock()
	return u.stats
}

func (u *udp) Send(dst overlay.Address, frame []byte) error {
	if len(frame) > MaxFrame {
		return ErrFrameTooLarge
	}
	u.mux.mu.Lock()
	defer u.mux.mu.Unlock()
	u.stats.FramesSent++
	u.stats.BytesSent += uint64(len(frame))
	if len(frame) <= u.mux.mss(0) {
		u.stats.Segments++
		return u.mux.emit(u.id, kindUDPSingle, dst, nil, frame)
	}
	mss := u.mux.mss(fragHeaderLen)
	nfrags := (len(frame) + mss - 1) / mss
	if nfrags > 0xffff {
		return ErrFrameTooLarge
	}
	u.nextMsgID++
	id := u.nextMsgID
	for f := 0; f < nfrags; f++ {
		lo := f * mss
		hi := lo + mss
		if hi > len(frame) {
			hi = len(frame)
		}
		var hdr [fragHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[0:], id)
		binary.BigEndian.PutUint16(hdr[4:], uint16(f))
		binary.BigEndian.PutUint16(hdr[6:], uint16(nfrags))
		u.stats.Segments++
		if err := u.mux.emit(u.id, kindUDPFrag, dst, hdr[:], frame[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

func (u *udp) handle(src overlay.Address, kind uint8, body []byte) {
	switch kind {
	case kindUDPSingle:
		u.stats.FramesRecv++
		u.stats.BytesRecv += uint64(len(body))
		u.mux.deliver(u.name, src, body)
	case kindUDPFrag:
		u.handleFrag(src, body)
	}
}

func (u *udp) handleFrag(src overlay.Address, body []byte) {
	if len(body) < fragHeaderLen {
		return
	}
	id := binary.BigEndian.Uint32(body[0:])
	frag := int(binary.BigEndian.Uint16(body[4:]))
	nfrags := int(binary.BigEndian.Uint16(body[6:]))
	if nfrags == 0 || frag >= nfrags {
		return
	}
	if u.reasm == nil {
		u.reasm = make(map[overlay.Address]map[uint32]*reassembly)
	}
	peer := u.reasm[src]
	if peer == nil {
		peer = make(map[uint32]*reassembly)
		u.reasm[src] = peer
	}
	u.expire(peer)
	r := peer[id]
	if r == nil {
		if len(peer) >= maxPendingReassemblies {
			u.stats.FragsDropped++
			return
		}
		r = &reassembly{parts: make([][]byte, nfrags), got: make([]bool, nfrags),
			missing: nfrags, deadline: u.mux.clock.Now().Add(fragTimeout)}
		peer[id] = r
	}
	if len(r.parts) != nfrags || r.got[frag] {
		return // duplicate or inconsistent geometry
	}
	r.parts[frag], r.got[frag] = bytes.Clone(body[fragHeaderLen:]), true
	r.missing--
	if r.missing > 0 {
		return
	}
	delete(peer, id)
	size := 0
	for _, p := range r.parts {
		size += len(p)
	}
	frame := make([]byte, 0, size)
	for _, p := range r.parts {
		frame = append(frame, p...)
	}
	u.stats.FramesRecv++
	u.stats.BytesRecv += uint64(len(frame))
	u.mux.deliver(u.name, src, frame)
}

func (u *udp) expire(peer map[uint32]*reassembly) {
	now := u.mux.clock.Now()
	for id, r := range peer {
		if now.After(r.deadline) {
			delete(peer, id)
			u.stats.FragsDropped++
		}
	}
}
