package bullet

import (
	"bytes"

	"macedon/internal/bloom"
	"macedon/internal/overlay"
)

// candidate is one RanSub advertisement: a node and the bloom summary of the
// blocks it holds (the "summary ticket").
type candidate struct {
	Addr    overlay.Address
	Summary []byte // bloom.Filter encoding
}

func encodeCands(w *overlay.Writer, cs []candidate) {
	w.U16(uint16(len(cs)))
	for _, c := range cs {
		w.Addr(c.Addr)
		w.Bytes32(c.Summary)
	}
}

func decodeCands(r *overlay.Reader) []candidate {
	n := int(r.U16())
	if r.Err() != nil {
		return nil
	}
	out := make([]candidate, 0, n)
	for i := 0; i < n; i++ {
		var c candidate
		c.Addr = r.Addr()
		c.Summary = r.Bytes32()
		out = append(out, c)
	}
	return out
}

// keepCands clones, in place, the summaries of decoded candidates — views of
// the received frame, valid only until its event chain ends — so that the
// candidates can be kept past it.
func keepCands(cs []candidate) []candidate {
	for i := range cs {
		cs[i].Summary = bytes.Clone(cs[i].Summary)
	}
	return cs
}

func (c candidate) filter() (*bloom.Filter, bool) {
	var f bloom.Filter
	if err := f.UnmarshalBinary(c.Summary); err != nil {
		return nil, false
	}
	return &f, true
}

// tblock is a stream block moving down the tree. Inc is the source's
// incarnation stamp: a cold-restarted source resets Seq but never Inc, so
// receivers that lived through the restart keep old and new streams apart
// (the stale-incarnation dedup class the churn audits keep finding).
type tblock struct {
	Inc     uint64
	Seq     uint32
	Typ     int32
	Payload []byte
}

func (m *tblock) MsgName() string { return "tblock" }
func (m *tblock) Encode(w *overlay.Writer) {
	w.U64(m.Inc)
	w.U32(m.Seq)
	w.U32(uint32(m.Typ))
	w.Bytes32(m.Payload)
}
func (m *tblock) Decode(r *overlay.Reader) error {
	m.Inc = r.U64()
	m.Seq = r.U32()
	m.Typ = int32(r.U32())
	m.Payload = r.Bytes32()
	return r.Err()
}

// collectMsg climbs the tree during a RanSub collect phase, carrying a
// uniform sample of descendants' candidates.
type collectMsg struct {
	Cands []candidate
}

func (m *collectMsg) MsgName() string                { return "collect" }
func (m *collectMsg) Encode(w *overlay.Writer)       { encodeCands(w, m.Cands) }
func (m *collectMsg) Decode(r *overlay.Reader) error { m.Cands = decodeCands(r); return r.Err() }

// distMsg descends the tree during the distribute phase.
type distMsg struct {
	Cands []candidate
}

func (m *distMsg) MsgName() string                { return "dist" }
func (m *distMsg) Encode(w *overlay.Writer)       { encodeCands(w, m.Cands) }
func (m *distMsg) Decode(r *overlay.Reader) error { m.Cands = decodeCands(r); return r.Err() }

// peerReq asks to become mesh peers; peerResp accepts or declines.
type peerReq struct{}

func (m *peerReq) MsgName() string                { return "peer_req" }
func (m *peerReq) Encode(*overlay.Writer)         {}
func (m *peerReq) Decode(r *overlay.Reader) error { return r.Err() }

type peerResp struct {
	Accept bool
}

func (m *peerResp) MsgName() string                { return "peer_resp" }
func (m *peerResp) Encode(w *overlay.Writer)       { w.Bool(m.Accept) }
func (m *peerResp) Decode(r *overlay.Reader) error { m.Accept = r.Bool(); return r.Err() }

// have advertises the sender's block summary to a mesh peer, together
// with the stream incarnations it knows: the bloom summary is opaque, so
// without the list a peer holding zero blocks of an incarnation could
// never learn which (inc, seq) keys to probe for.
type have struct {
	Summary []byte
	Incs    []uint64
}

func (m *have) MsgName() string { return "have" }
func (m *have) Encode(w *overlay.Writer) {
	w.Bytes32(m.Summary)
	w.U16(uint16(len(m.Incs)))
	for _, inc := range m.Incs {
		w.U64(inc)
	}
}
func (m *have) Decode(r *overlay.Reader) error {
	m.Summary = r.Bytes32()
	n := int(r.U16())
	if r.Err() != nil {
		return r.Err()
	}
	m.Incs = make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		m.Incs = append(m.Incs, r.U64())
	}
	return r.Err()
}

// blockReq requests specific missing blocks of one stream incarnation
// from a peer.
type blockReq struct {
	Inc  uint64
	Seqs []uint32
}

func (m *blockReq) MsgName() string { return "block_req" }
func (m *blockReq) Encode(w *overlay.Writer) {
	w.U64(m.Inc)
	w.U16(uint16(len(m.Seqs)))
	for _, s := range m.Seqs {
		w.U32(s)
	}
}
func (m *blockReq) Decode(r *overlay.Reader) error {
	m.Inc = r.U64()
	n := int(r.U16())
	if r.Err() != nil {
		return r.Err()
	}
	m.Seqs = make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		m.Seqs = append(m.Seqs, r.U32())
	}
	return r.Err()
}

// blockData answers a blockReq.
type blockData struct {
	Inc     uint64
	Seq     uint32
	Typ     int32
	Payload []byte
}

func (m *blockData) MsgName() string { return "block_data" }
func (m *blockData) Encode(w *overlay.Writer) {
	w.U64(m.Inc)
	w.U32(m.Seq)
	w.U32(uint32(m.Typ))
	w.Bytes32(m.Payload)
}
func (m *blockData) Decode(r *overlay.Reader) error {
	m.Inc = r.U64()
	m.Seq = r.U32()
	m.Typ = int32(r.U32())
	m.Payload = r.Bytes32()
	return r.Err()
}
