package chord

import "macedon/internal/overlay"

// Find-successor purposes.
const (
	purposeJoin = 0 // joining node locating its successor
	purposeFix  = 1 // fix-fingers route repair (§2.1.3: "route repair requests")
)

// findReq locates the successor of Target. It routes greedily through
// finger tables; the owner answers the origin directly.
type findReq struct {
	Target  overlay.Key
	Origin  overlay.Address
	ReqID   uint32
	Purpose uint8
	Idx     uint8 // finger index when Purpose == purposeFix
	Hops    uint8
}

func (m *findReq) MsgName() string { return "find_req" }
func (m *findReq) Encode(w *overlay.Writer) {
	w.Key(m.Target)
	w.Addr(m.Origin)
	w.U32(m.ReqID)
	w.U8(m.Purpose)
	w.U8(m.Idx)
	w.U8(m.Hops)
}
func (m *findReq) Decode(r *overlay.Reader) error {
	m.Target = r.Key()
	m.Origin = r.Addr()
	m.ReqID = r.U32()
	m.Purpose = r.U8()
	m.Idx = r.U8()
	m.Hops = r.U8()
	return r.Err()
}

// findResp answers a findReq with the owner of the target key.
type findResp struct {
	ReqID   uint32
	Owner   overlay.Address
	Purpose uint8
	Idx     uint8
	Hops    uint8
}

func (m *findResp) MsgName() string { return "find_resp" }
func (m *findResp) Encode(w *overlay.Writer) {
	w.U32(m.ReqID)
	w.Addr(m.Owner)
	w.U8(m.Purpose)
	w.U8(m.Idx)
	w.U8(m.Hops)
}
func (m *findResp) Decode(r *overlay.Reader) error {
	m.ReqID = r.U32()
	m.Owner = r.Addr()
	m.Purpose = r.U8()
	m.Idx = r.U8()
	m.Hops = r.U8()
	return r.Err()
}

// getPredReq asks a node for its predecessor (the stabilize probe).
type getPredReq struct{}

func (m *getPredReq) MsgName() string                { return "get_pred_req" }
func (m *getPredReq) Encode(*overlay.Writer)         {}
func (m *getPredReq) Decode(r *overlay.Reader) error { return r.Err() }

// getPredResp returns the predecessor (NilAddress when unknown) and the
// responder's successor list for succ-list replication.
type getPredResp struct {
	Pred     overlay.Address
	SuccList []overlay.Address
}

func (m *getPredResp) MsgName() string { return "get_pred_resp" }
func (m *getPredResp) Encode(w *overlay.Writer) {
	w.Addr(m.Pred)
	w.Addrs(m.SuccList)
}
func (m *getPredResp) Decode(r *overlay.Reader) error {
	m.Pred = r.Addr()
	m.SuccList = r.Addrs()
	return r.Err()
}

// notify tells a successor about a potential predecessor.
type notify struct{}

func (m *notify) MsgName() string                { return "notify" }
func (m *notify) Encode(*overlay.Writer)         {}
func (m *notify) Decode(r *overlay.Reader) error { return r.Err() }

// data carries a routed payload toward the owner of Dest.
type data struct {
	Src     overlay.Address
	Dest    overlay.Key
	Typ     int32
	Hops    uint8
	Payload []byte
}

func (m *data) MsgName() string { return "data" }
func (m *data) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.Key(m.Dest)
	w.U32(uint32(m.Typ))
	w.U8(m.Hops)
	w.Bytes32(m.Payload)
}
func (m *data) Decode(r *overlay.Reader) error {
	m.Src = r.Addr()
	m.Dest = r.Key()
	m.Typ = int32(r.U32())
	m.Hops = r.U8()
	m.Payload = r.Bytes32()
	return r.Err()
}

// dataIP carries a payload sent directly to an address (macedon_routeIP).
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
