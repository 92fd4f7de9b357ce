package pastry

import "macedon/internal/overlay"

// joinReq is routed toward the joiner's key; every hop appends the routing
// rows the joiner needs, and the final (numerically closest) node answers
// with its leaf set.
type joinReq struct {
	Joiner overlay.Address
	Rows   []rowTransfer
	Hops   uint8
}

type rowTransfer struct {
	Row     uint8
	Entries []overlay.Address // len 2^b; NilAddress for empty
}

func (m *joinReq) MsgName() string { return "join_req" }
func (m *joinReq) Encode(w *overlay.Writer) {
	w.Addr(m.Joiner)
	w.U8(m.Hops)
	w.U16(uint16(len(m.Rows)))
	for _, rt := range m.Rows {
		w.U8(rt.Row)
		w.Addrs(rt.Entries)
	}
}
func (m *joinReq) Decode(r *overlay.Reader) error {
	m.Joiner = r.Addr()
	m.Hops = r.U8()
	n := int(r.U16())
	if err := r.Err(); err != nil {
		return err
	}
	m.Rows = make([]rowTransfer, 0, n)
	for i := 0; i < n; i++ {
		var rt rowTransfer
		rt.Row = r.U8()
		rt.Entries = r.Addrs()
		m.Rows = append(m.Rows, rt)
	}
	return r.Err()
}

// joinReply completes a join with the closest node's leaf set plus the
// accumulated rows.
type joinReply struct {
	Rows   []rowTransfer
	Leaves []overlay.Address
}

func (m *joinReply) MsgName() string { return "join_reply" }
func (m *joinReply) Encode(w *overlay.Writer) {
	w.U16(uint16(len(m.Rows)))
	for _, rt := range m.Rows {
		w.U8(rt.Row)
		w.Addrs(rt.Entries)
	}
	w.Addrs(m.Leaves)
}
func (m *joinReply) Decode(r *overlay.Reader) error {
	n := int(r.U16())
	if err := r.Err(); err != nil {
		return err
	}
	m.Rows = make([]rowTransfer, 0, n)
	for i := 0; i < n; i++ {
		var rt rowTransfer
		rt.Row = r.U8()
		rt.Entries = r.Addrs()
		m.Rows = append(m.Rows, rt)
	}
	m.Leaves = r.Addrs()
	return r.Err()
}

// announce tells existing nodes about a newly joined node so they can fold
// it into their tables.
type announce struct{}

func (m *announce) MsgName() string                { return "announce" }
func (m *announce) Encode(*overlay.Writer)         {}
func (m *announce) Decode(r *overlay.Reader) error { return r.Err() }

// lsReq/lsResp implement the periodic leaf-set exchange.
type lsReq struct{}

func (m *lsReq) MsgName() string                { return "ls_req" }
func (m *lsReq) Encode(*overlay.Writer)         {}
func (m *lsReq) Decode(r *overlay.Reader) error { return r.Err() }

type lsResp struct {
	Leaves []overlay.Address
}

func (m *lsResp) MsgName() string                { return "ls_resp" }
func (m *lsResp) Encode(w *overlay.Writer)       { w.Addrs(m.Leaves) }
func (m *lsResp) Decode(r *overlay.Reader) error { m.Leaves = r.Addrs(); return r.Err() }

// data is a payload routed by key.
type data struct {
	Src       overlay.Address
	Dest      overlay.Key
	Typ       int32
	Hops      uint8
	WantCache bool // origin asks the owner for a location-cache entry
	Payload   []byte
}

func (m *data) MsgName() string { return "data" }
func (m *data) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.Key(m.Dest)
	w.U32(uint32(m.Typ))
	w.U8(m.Hops)
	w.Bool(m.WantCache)
	w.Bytes32(m.Payload)
}
func (m *data) Decode(r *overlay.Reader) error {
	m.Src = r.Addr()
	m.Dest = r.Key()
	m.Typ = int32(r.U32())
	m.Hops = r.U8()
	m.WantCache = r.Bool()
	m.Payload = r.Bytes32()
	return r.Err()
}

// dataIP is a payload sent directly to an address (macedon_routeIP).
type dataIP struct {
	Src     overlay.Address
	Typ     int32
	Payload []byte
}

func (m *dataIP) MsgName() string { return "data_ip" }
func (m *dataIP) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.U32(uint32(m.Typ))
	w.Bytes32(m.Payload)
}
func (m *dataIP) Decode(r *overlay.Reader) error {
	m.Src = r.Addr()
	m.Typ = int32(r.U32())
	m.Payload = r.Bytes32()
	return r.Err()
}

// cacheInfo lets the owner of a key teach the origin its address: the
// location-cache fill whose eviction policy Figure 12 studies.
type cacheInfo struct {
	Key overlay.Key
}

func (m *cacheInfo) MsgName() string                { return "cache_info" }
func (m *cacheInfo) Encode(w *overlay.Writer)       { w.Key(m.Key) }
func (m *cacheInfo) Decode(r *overlay.Reader) error { m.Key = r.Key(); return r.Err() }
