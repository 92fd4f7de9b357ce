package nice

import (
	"time"

	"macedon/internal/overlay"
)

// query asks a node for its cluster membership at a layer; -1 means the
// node's top layer. Joiners descend the hierarchy with these.
type query struct {
	Layer int8
}

func (m *query) MsgName() string                { return "query" }
func (m *query) Encode(w *overlay.Writer)       { w.U8(uint8(m.Layer)) }
func (m *query) Decode(r *overlay.Reader) error { m.Layer = int8(r.U8()); return r.Err() }

// queryResp answers a query with the responder's cluster at Layer, or with
// Layer -1 redirects a -1 query to Leader, higher in the hierarchy.
type queryResp struct {
	Layer   int8
	Leader  overlay.Address
	Members []overlay.Address
}

func (m *queryResp) MsgName() string { return "query_resp" }
func (m *queryResp) Encode(w *overlay.Writer) {
	w.U8(uint8(m.Layer))
	w.Addr(m.Leader)
	w.Addrs(m.Members)
}
func (m *queryResp) Decode(r *overlay.Reader) error {
	m.Layer = int8(r.U8())
	m.Leader = r.Addr()
	m.Members = r.Addrs()
	return r.Err()
}

// probeReq/probeResp measure member-to-member RTT, the distance metric the
// entire protocol optimizes.
type probeReq struct {
	Nonce uint32
}

func (m *probeReq) MsgName() string                { return "probe_req" }
func (m *probeReq) Encode(w *overlay.Writer)       { w.U32(m.Nonce) }
func (m *probeReq) Decode(r *overlay.Reader) error { m.Nonce = r.U32(); return r.Err() }

type probeResp struct {
	Nonce uint32
}

func (m *probeResp) MsgName() string                { return "probe_resp" }
func (m *probeResp) Encode(w *overlay.Writer)       { w.U32(m.Nonce) }
func (m *probeResp) Decode(r *overlay.Reader) error { m.Nonce = r.U32(); return r.Err() }

// joinCluster asks a leader to add the sender to its cluster at a layer.
type joinCluster struct {
	Layer int8
}

func (m *joinCluster) MsgName() string                { return "join_cluster" }
func (m *joinCluster) Encode(w *overlay.Writer)       { w.U8(uint8(m.Layer)) }
func (m *joinCluster) Decode(r *overlay.Reader) error { m.Layer = int8(r.U8()); return r.Err() }

// clusterUpdate is a leader's authoritative cluster view broadcast. The
// ParentLeader hint tells a newly promoted leader whom to join at the next
// layer up.
type clusterUpdate struct {
	Layer        int8
	Leader       overlay.Address
	ParentLeader overlay.Address
	Members      []overlay.Address
}

func (m *clusterUpdate) MsgName() string { return "cluster_update" }
func (m *clusterUpdate) Encode(w *overlay.Writer) {
	w.U8(uint8(m.Layer))
	w.Addr(m.Leader)
	w.Addr(m.ParentLeader)
	w.Addrs(m.Members)
}
func (m *clusterUpdate) Decode(r *overlay.Reader) error {
	m.Layer = int8(r.U8())
	m.Leader = r.Addr()
	m.ParentLeader = r.Addr()
	m.Members = r.Addrs()
	return r.Err()
}

// heartbeat carries liveness plus the sender's distance vector so leaders
// can compute graph-theoretic cluster centers.
type heartbeat struct {
	Layer int8
	Addrs []overlay.Address
	Dists []time.Duration // parallel to Addrs, RTT estimates
}

func (m *heartbeat) MsgName() string { return "hb" }
func (m *heartbeat) Encode(w *overlay.Writer) {
	w.U8(uint8(m.Layer))
	w.Addrs(m.Addrs)
	w.U16(uint16(len(m.Dists)))
	for _, d := range m.Dists {
		w.I64(int64(d))
	}
}
func (m *heartbeat) Decode(r *overlay.Reader) error {
	m.Layer = int8(r.U8())
	m.Addrs = r.Addrs()
	n := int(r.U16())
	if err := r.Err(); err != nil {
		return err
	}
	m.Dists = make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		m.Dists = append(m.Dists, time.Duration(r.I64()))
	}
	return r.Err()
}

// mdata is multicast payload moving through the cluster hierarchy. Inc is
// the source's incarnation stamp: a member that restarts resets its Seq
// counter, and without the stamp long-lived receivers would deduplicate the
// fresh stream against the dead one's sequence numbers.
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
