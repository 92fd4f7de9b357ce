package scribe

import "macedon/internal/overlay"

// joinG is routed toward the group root; intermediate nodes graft the
// reverse path into the distribution tree (§5: "Receivers enter the session
// by routing join requests toward the root").
type joinG struct {
	Group  overlay.Key
	Joiner overlay.Address
	// Direct marks joins sent point-to-point (refresh to a known parent,
	// pushdown re-join): the receiver grafts the child but is not the
	// group's rendezvous root.
	Direct bool
}

func (m *joinG) MsgName() string { return "join_g" }
func (m *joinG) Encode(w *overlay.Writer) {
	w.Key(m.Group)
	w.Addr(m.Joiner)
	w.Bool(m.Direct)
}
func (m *joinG) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	m.Joiner = r.Addr()
	m.Direct = r.Bool()
	return r.Err()
}

// joinAck tells a joiner who its tree parent is.
type joinAck struct {
	Group overlay.Key
}

func (m *joinAck) MsgName() string                { return "join_ack" }
func (m *joinAck) Encode(w *overlay.Writer)       { w.Key(m.Group) }
func (m *joinAck) Decode(r *overlay.Reader) error { m.Group = r.Key(); return r.Err() }

// joinRedirect implements the SplitStream pushdown: a saturated parent
// bounces the joiner to one of its children.
type joinRedirect struct {
	Group overlay.Key
	To    overlay.Address
}

func (m *joinRedirect) MsgName() string { return "join_redirect" }
func (m *joinRedirect) Encode(w *overlay.Writer) {
	w.Key(m.Group)
	w.Addr(m.To)
}
func (m *joinRedirect) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	m.To = r.Addr()
	return r.Err()
}

// leaveG prunes a child from the tree.
type leaveG struct {
	Group overlay.Key
}

func (m *leaveG) MsgName() string                { return "leave_g" }
func (m *leaveG) Encode(w *overlay.Writer)       { w.Key(m.Group) }
func (m *leaveG) Decode(r *overlay.Reader) error { m.Group = r.Key(); return r.Err() }

// createG marks the rendezvous node as the group's root.
type createG struct {
	Group overlay.Key
}

func (m *createG) MsgName() string                { return "create_g" }
func (m *createG) Encode(w *overlay.Writer)       { w.Key(m.Group) }
func (m *createG) Decode(r *overlay.Reader) error { m.Group = r.Key(); return r.Err() }

// mdata is multicast payload moving through the tree. Seq plus Src
// deduplicates while the tree reconverges (transient cycles and
// double-parenting must not amplify traffic).
type mdata struct {
	Group   overlay.Key
	Src     overlay.Address
	Seq     uint32
	Typ     int32
	Payload []byte
}

func (m *mdata) MsgName() string { return "mdata" }
func (m *mdata) Encode(w *overlay.Writer) {
	w.Key(m.Group)
	w.Addr(m.Src)
	w.U32(m.Seq)
	w.U32(uint32(m.Typ))
	w.Bytes32(m.Payload)
}
func (m *mdata) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	m.Src = r.Addr()
	m.Seq = r.U32()
	m.Typ = int32(r.U32())
	m.Payload = r.Bytes32()
	return r.Err()
}

// cdata is collect payload moving up the tree toward the root (the
// macedon_collect primitive of §2.2).
type cdata struct {
	Group   overlay.Key
	Src     overlay.Address
	Typ     int32
	Payload []byte
}

func (m *cdata) MsgName() string { return "cdata" }
func (m *cdata) Encode(w *overlay.Writer) {
	w.Key(m.Group)
	w.Addr(m.Src)
	w.U32(uint32(m.Typ))
	w.Bytes32(m.Payload)
}
func (m *cdata) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	m.Src = r.Addr()
	m.Typ = int32(r.U32())
	m.Payload = r.Bytes32()
	return r.Err()
}

// acast performs the DFS anycast over the tree.
type acast struct {
	Group   overlay.Key
	Src     overlay.Address
	Typ     int32
	Payload []byte
	Visited []overlay.Address
}

func (m *acast) MsgName() string { return "acast" }
func (m *acast) Encode(w *overlay.Writer) {
	w.Key(m.Group)
	w.Addr(m.Src)
	w.U32(uint32(m.Typ))
	w.Bytes32(m.Payload)
	w.Addrs(m.Visited)
}
func (m *acast) Decode(r *overlay.Reader) error {
	m.Group = r.Key()
	m.Src = r.Addr()
	m.Typ = int32(r.U32())
	m.Payload = r.Bytes32()
	m.Visited = r.Addrs()
	return r.Err()
}
