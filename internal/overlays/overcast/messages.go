package overcast

import "macedon/internal/overlay"

// joinMsg is the paper's "BEST_EFFORT join { }": an empty datagram.
type joinMsg struct{}

func (m *joinMsg) MsgName() string                { return "join" }
func (m *joinMsg) Encode(*overlay.Writer)         {}
func (m *joinMsg) Decode(r *overlay.Reader) error { return r.Err() }

// joinReply is the paper's "HIGHEST join_reply { int response; }", extended
// with the grandparent/sibling information a joiner probes later (the paper
// omits how a node acquires this; the reply is the natural carrier) and the
// acceptor's root path, which keeps relocation acyclic.
type joinReply struct {
	Response    int32
	Redirect    overlay.Address
	Grandparent overlay.Address
	Siblings    []overlay.Address
	RootPath    []overlay.Address // acceptor first, root last
}

func (m *joinReply) MsgName() string { return "join_reply" }
func (m *joinReply) Encode(w *overlay.Writer) {
	w.I32(m.Response)
	w.Addr(m.Redirect)
	w.Addr(m.Grandparent)
	w.Addrs(m.Siblings)
	w.Addrs(m.RootPath)
}
func (m *joinReply) Decode(r *overlay.Reader) error {
	m.Response = r.I32()
	m.Redirect = r.Addr()
	m.Grandparent = r.Addr()
	m.Siblings = r.Addrs()
	m.RootPath = r.Addrs()
	return r.Err()
}

// removeMsg tells an old parent its child moved (Figure 6 line 6).
type removeMsg struct{}

func (m *removeMsg) MsgName() string                { return "remove" }
func (m *removeMsg) Encode(*overlay.Writer)         {}
func (m *removeMsg) Decode(r *overlay.Reader) error { return r.Err() }

// probeRequest asks a relative to send a probe train.
type probeRequest struct {
	Count uint16
}

func (m *probeRequest) MsgName() string                { return "probe_request" }
func (m *probeRequest) Encode(w *overlay.Writer)       { w.U16(m.Count) }
func (m *probeRequest) Decode(r *overlay.Reader) error { m.Count = r.U16(); return r.Err() }

// probe is one padded element of a train.
type probe struct {
	Idx   uint16
	Total uint16
	Pad   []byte
}

func (m *probe) MsgName() string { return "probe" }
func (m *probe) Encode(w *overlay.Writer) {
	w.U16(m.Idx)
	w.U16(m.Total)
	w.Bytes32(m.Pad)
}
func (m *probe) Decode(r *overlay.Reader) error {
	m.Idx = r.U16()
	m.Total = r.U16()
	m.Pad = r.Bytes32()
	return r.Err()
}

// probeReply closes a train; it carries the prober's root path so the
// probed node never relocates under its own descendant.
type probeReply struct {
	Sent     uint16
	RootPath []overlay.Address
}

func (m *probeReply) MsgName() string { return "probe_reply" }
func (m *probeReply) Encode(w *overlay.Writer) {
	w.U16(m.Sent)
	w.Addrs(m.RootPath)
}
func (m *probeReply) Decode(r *overlay.Reader) error {
	m.Sent = r.U16()
	m.RootPath = r.Addrs()
	return r.Err()
}

// familyUpdate refreshes a child's grandparent/sibling view and carries the
// parent's root path for cycle detection.
type familyUpdate struct {
	Grandparent overlay.Address
	Siblings    []overlay.Address
	RootPath    []overlay.Address // parent first, root last
}

func (m *familyUpdate) MsgName() string { return "family" }
func (m *familyUpdate) Encode(w *overlay.Writer) {
	w.Addr(m.Grandparent)
	w.Addrs(m.Siblings)
	w.Addrs(m.RootPath)
}
func (m *familyUpdate) Decode(r *overlay.Reader) error {
	m.Grandparent = r.Addr()
	m.Siblings = r.Addrs()
	m.RootPath = r.Addrs()
	return r.Err()
}

// mdata is multicast payload moving down the tree. (Inc, Seq) deduplicates
// deliveries when relocation rewires the tree mid-flight: Inc is the
// source's incarnation stamp, so a restarted root whose Seq counter resets
// is not mistaken for a replay of the previous incarnation's stream.
type mdata struct {
	Src     overlay.Address
	Inc     uint64
	Seq     uint32
	Typ     int32
	Payload []byte
}

func (m *mdata) MsgName() string { return "mdata" }
func (m *mdata) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.I64(int64(m.Inc))
	w.U32(m.Seq)
	w.U32(uint32(m.Typ))
	w.Bytes32(m.Payload)
}
func (m *mdata) Decode(r *overlay.Reader) error {
	m.Src = r.Addr()
	m.Inc = uint64(r.I64())
	m.Seq = r.U32()
	m.Typ = int32(r.U32())
	m.Payload = r.Bytes32()
	return r.Err()
}
