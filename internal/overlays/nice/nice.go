// Package nice implements the NICE application-layer multicast protocol [4]
// as a MACEDON agent: members arrange into a hierarchy of latency-based
// clusters of size [k, 3k-1]; each cluster's leader is its graph-theoretic
// center and represents it one layer up. Joiners descend the hierarchy
// probing each layer's members for the closest, and periodic invariant
// timers split oversize clusters and merge undersize ones — the behaviour
// §2.1.2 of the paper uses as its timer-transition example. Figures 8 and 9
// of the paper validate exactly this implementation's stretch and latency
// against the NICE authors' published results.
package nice

import (
	"slices"
	"sort"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

// Params tunes the protocol.
type Params struct {
	// K is the cluster size constant: clusters hold [K, 3K-1] members
	// (default 3).
	K int
	// HeartbeatPeriod drives intra-cluster liveness and distance gossip
	// (default 2 s).
	HeartbeatPeriod time.Duration
	// RefinePeriod drives the leader's invariant checks: split, merge, and
	// center re-election (default 5 s).
	RefinePeriod time.Duration
	// MemberTimeout removes silent clustermates (default 15 s).
	MemberTimeout time.Duration
}

func (p *Params) setDefaults() {
	if p.K <= 0 {
		p.K = 3
	}
	if p.HeartbeatPeriod <= 0 {
		p.HeartbeatPeriod = 2 * time.Second
	}
	if p.RefinePeriod <= 0 {
		p.RefinePeriod = 5 * time.Second
	}
	if p.MemberTimeout <= 0 {
		p.MemberTimeout = 15 * time.Second
	}
}

// New returns a factory for NICE agents.
func New(p Params) core.Factory {
	p.setDefaults()
	return func() core.Agent { return &Protocol{p: p} }
}

// maxLayers bounds hierarchy depth: with k >= 3 a population of 2^32 nodes
// needs fewer than 24 layers, so anything deeper is a protocol error.
const maxLayers = 24

// cluster is this node's view of one cluster it belongs to.
type cluster struct {
	leader  overlay.Address
	members map[overlay.Address]bool // includes self
	parent  overlay.Address          // leader of the cluster one layer up
}

// Protocol is one node's NICE instance.
type Protocol struct {
	p Params

	self overlay.Address
	rp   overlay.Address // rendezvous point (the bootstrap)

	layers []*cluster // index = layer; node belongs to 0..len-1

	dists     map[overlay.Address]time.Duration
	probeSent map[uint32]probeState
	nextNonce uint32
	lastSeen  map[overlay.Address]time.Time
	// Leader's gossip matrix: member -> (member -> RTT).
	matrix map[overlay.Address]map[overlay.Address]time.Duration

	// Join descent state.
	descendLayer int8
	descendHost  overlay.Address
	redirects    int // top-of-hierarchy redirects followed since the descent began
	candidates   []overlay.Address
	probesLeft   int
	bestCand     overlay.Address
	bestDist     time.Duration

	inc      uint64 // incarnation stamp carried on our own mdata
	nextSeq  uint32
	seen     map[pktKey]bool
	delivers uint64
}

// pktKey identifies one multicast packet across source restarts: without
// the incarnation, a churned-and-revived source's reset Seq counter would
// collide with the seen-window of its previous life.
type pktKey struct {
	src overlay.Address
	inc uint64
	seq uint32
}

type probeState struct {
	to overlay.Address
	at time.Time
}

// ProtocolName implements the engine's naming hook.
func (n *Protocol) ProtocolName() string { return "nice" }

// TopLayer returns the highest layer this node belongs to.
func (n *Protocol) TopLayer() int { return len(n.layers) - 1 }

// ClusterMembers returns this node's cluster view at a layer.
func (n *Protocol) ClusterMembers(layer int) []overlay.Address {
	if layer < 0 || layer >= len(n.layers) {
		return nil
	}
	out := make([]overlay.Address, 0, len(n.layers[layer].members))
	for a := range n.layers[layer].members {
		out = append(out, a)
	}
	return out
}

// Leader reports whether this node leads its cluster at a layer.
func (n *Protocol) Leader(layer int) bool {
	return layer >= 0 && layer < len(n.layers) && n.layers[layer].leader == n.self
}

// Delivered counts data payloads delivered to the application here.
func (n *Protocol) Delivered() uint64 { return n.delivers }

// Define declares the NICE FSM: the Go equivalent of nice.mac.
func (n *Protocol) Define(d *core.Def) {
	d.States("joining", "joined")
	d.Addressing(core.IPAddressing)

	d.UDPTransport("CTRL")
	d.TCPTransport("DATA")

	d.Message("query", func() overlay.Message { return &query{} }, "CTRL")
	d.Message("query_resp", func() overlay.Message { return &queryResp{} }, "CTRL")
	d.Message("probe_req", func() overlay.Message { return &probeReq{} }, "CTRL")
	d.Message("probe_resp", func() overlay.Message { return &probeResp{} }, "CTRL")
	d.Message("join_cluster", func() overlay.Message { return &joinCluster{} }, "CTRL")
	d.Message("cluster_update", func() overlay.Message { return &clusterUpdate{} }, "CTRL")
	d.Message("hb", func() overlay.Message { return &heartbeat{} }, "CTRL")
	d.Message("mdata", func() overlay.Message { return &mdata{} }, "DATA")

	d.PeriodicTimer("hb", n.p.HeartbeatPeriod)
	d.PeriodicTimer("refine", n.p.RefinePeriod)
	d.Timer("join_retry", 5*time.Second)

	d.OnAPI(overlay.APIInit, core.In(core.StateInit), core.Write, n.apiInit)
	d.OnAPI(overlay.APIMulticast, core.In("joined"), core.Read, n.apiMulticast)

	d.OnRecv("query", core.Any, core.Read, n.recvQuery)
	d.OnRecv("query_resp", core.In("joining"), core.Write, n.recvQueryResp)
	d.OnRecv("probe_req", core.Any, core.Read, n.recvProbeReq)
	d.OnRecv("probe_resp", core.Any, core.Write, n.recvProbeResp)
	d.OnRecv("join_cluster", core.In("joined"), core.Write, n.recvJoinCluster)
	d.OnRecv("cluster_update", core.Any, core.Write, n.recvClusterUpdate)
	d.OnRecv("hb", core.Any, core.Write, n.recvHeartbeat)
	d.OnRecv("mdata", core.In("joined"), core.Read, n.recvMdata)

	d.OnTimer("hb", core.In("joined"), core.Write, n.onHeartbeat)
	d.OnTimer("refine", core.In("joined"), core.Write, n.onRefine)
	d.OnTimer("join_retry", core.In("joining"), core.Write, n.onJoinRetry)
}

func (n *Protocol) apiInit(ctx *core.Context, call *core.APICall) {
	n.self = ctx.Self()
	n.rp = call.Bootstrap
	// The full virtual-nanosecond clock reading: deterministic, and a
	// revived node always restarts strictly later than its previous
	// incarnation, so the stamp can never collide across restarts.
	n.inc = uint64(ctx.Now().UnixNano())
	n.dists = make(map[overlay.Address]time.Duration)
	n.probeSent = make(map[uint32]probeState)
	n.lastSeen = make(map[overlay.Address]time.Time)
	n.matrix = make(map[overlay.Address]map[overlay.Address]time.Duration)
	n.seen = make(map[pktKey]bool)
	if n.rp == n.self || n.rp == overlay.NilAddress {
		// The rendezvous point starts as the lone member and leader of L0.
		n.layers = []*cluster{{leader: n.self, members: map[overlay.Address]bool{n.self: true}}}
		n.becomeJoined(ctx)
		return
	}
	ctx.StateChange("joining")
	n.descendHost = n.rp
	n.descendLayer = -1 // ask for the RP's top layer
	n.redirects = 0
	_ = ctx.Send(n.rp, &query{Layer: -1}, overlay.PriorityDefault)
	ctx.TimerSched("join_retry", 0)
}

func (n *Protocol) becomeJoined(ctx *core.Context) {
	ctx.StateChange("joined")
	ctx.TimerSched("hb", n.jitter(ctx, n.p.HeartbeatPeriod))
	ctx.TimerSched("refine", n.jitter(ctx, n.p.RefinePeriod))
}

func (n *Protocol) jitter(ctx *core.Context, d time.Duration) time.Duration {
	return d*3/4 + time.Duration(ctx.Rand().Int63n(int64(d)/2+1))
}

func (n *Protocol) onJoinRetry(ctx *core.Context) {
	// Restart the descent from the RP.
	n.descendHost = n.rp
	n.descendLayer = -1
	n.redirects = 0
	_ = ctx.Send(n.rp, &query{Layer: -1}, overlay.PriorityDefault)
	ctx.TimerSched("join_retry", 5*time.Second)
}

// --- join descent -----------------------------------------------------------

func (n *Protocol) recvQuery(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*query)
	layer := int(m.Layer)
	if layer < 0 {
		layer = len(n.layers) - 1
		// A top cluster we do not lead is not the hierarchy's top: its
		// leader sits a layer higher, so point the joiner there.
		if layer >= 0 && !n.Leader(layer) && n.layers[layer].leader != overlay.NilAddress {
			_ = ctx.Send(ev.From, &queryResp{Layer: -1, Leader: n.layers[layer].leader}, overlay.PriorityDefault)
			return
		}
	}
	if layer < 0 || layer >= len(n.layers) {
		// Not a member at that layer; answer with the lowest cluster so the
		// joiner can still make progress.
		layer = 0
	}
	if len(n.layers) == 0 {
		return // still joining ourselves
	}
	cl := n.layers[layer]
	_ = ctx.Send(ev.From, &queryResp{Layer: int8(layer), Leader: cl.leader,
		Members: setToSlice(cl.members)}, overlay.PriorityDefault)
}

func (n *Protocol) recvQueryResp(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*queryResp)
	if m.Layer < 0 {
		// A redirect toward the top. The cap stops two nodes whose views
		// disagree from bouncing the query between them.
		if n.redirects < maxLayers && m.Leader != n.self && m.Leader != overlay.NilAddress {
			n.redirects++
			n.descendHost = m.Leader
			_ = ctx.Send(m.Leader, &query{Layer: -1}, overlay.PriorityDefault)
		}
		return
	}
	n.descendLayer = m.Layer
	n.candidates = nil
	for _, a := range m.Members {
		if a != n.self {
			n.candidates = append(n.candidates, a)
		}
	}
	if len(n.candidates) == 0 {
		// Empty layer: join the responder's cluster directly.
		_ = ctx.Send(ev.From, &joinCluster{Layer: 0}, overlay.PriorityDefault)
		return
	}
	// Probe every member of this layer; the closest guides the descent
	// (Figures 8/9 rest on this latency-driven placement).
	n.probesLeft = len(n.candidates)
	n.bestCand = overlay.NilAddress
	n.bestDist = 1<<63 - 1
	for _, a := range n.candidates {
		n.sendProbe(ctx, a)
	}
}

func (n *Protocol) sendProbe(ctx *core.Context, to overlay.Address) {
	n.nextNonce++
	n.probeSent[n.nextNonce] = probeState{to: to, at: ctx.Now()}
	_ = ctx.Send(to, &probeReq{Nonce: n.nextNonce}, overlay.PriorityDefault)
}

func (n *Protocol) recvProbeReq(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*probeReq)
	_ = ctx.Send(ev.From, &probeResp{Nonce: m.Nonce}, overlay.PriorityDefault)
}

func (n *Protocol) recvProbeResp(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*probeResp)
	ps, ok := n.probeSent[m.Nonce]
	if !ok {
		return
	}
	delete(n.probeSent, m.Nonce)
	rtt := ctx.Now().Sub(ps.at)
	n.dists[ps.to] = rtt
	if ctx.State() != "joining" {
		return
	}
	// Join-descent accounting.
	if slices.Contains(n.candidates, ps.to) {
		if rtt < n.bestDist {
			n.bestCand, n.bestDist = ps.to, rtt
		}
		n.probesLeft--
		if n.probesLeft == 0 && n.bestCand != overlay.NilAddress {
			if n.descendLayer <= 0 {
				// Bottom: join the closest candidate's L0 cluster.
				_ = ctx.Send(n.bestCand, &joinCluster{Layer: 0}, overlay.PriorityDefault)
				return
			}
			// Descend: ask the closest leader for its cluster one layer
			// down.
			n.descendHost = n.bestCand
			_ = ctx.Send(n.bestCand, &query{Layer: n.descendLayer - 1}, overlay.PriorityDefault)
		}
	}
}

// recvJoinCluster runs at a (would-be) leader: add the member. Refreshes
// from existing members are idempotent soft state.
func (n *Protocol) recvJoinCluster(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*joinCluster)
	layer := int(m.Layer)
	if layer < 0 || layer > maxLayers {
		return
	}
	n.lastSeen[ev.From] = ctx.Now()
	if layer == len(n.layers) && layer > 0 && n.layers[layer-1].leader == n.self {
		// A fellow leader wants a cluster one above our shared top: grow
		// the hierarchy (this is also how the very first split creates L1).
		n.layers = append(n.layers, &cluster{
			leader:  n.self,
			members: map[overlay.Address]bool{n.self: true, ev.From: true},
		})
		n.broadcastUpdate(ctx, layer)
		return
	}
	if layer >= len(n.layers) {
		// We are not a member at that layer. Redirect the asker toward the
		// highest leader we know: a provisional view listing both, which
		// the asker installs (invariant permitting) and then refreshes with
		// that leader directly.
		top := len(n.layers) - 1
		if top < 0 {
			return
		}
		lead := n.layers[top].leader
		if lead == ev.From || lead == overlay.NilAddress {
			return // the asker already heads the tallest chain we know
		}
		_ = ctx.Send(ev.From, &clusterUpdate{Layer: m.Layer, Leader: lead,
			Members: []overlay.Address{lead, ev.From}}, overlay.PriorityDefault)
		return
	}
	cl := n.layers[layer]
	if cl.leader != n.self {
		// Not the leader: bounce the joiner to the real one, listing the
		// joiner provisionally so it installs the corrected leader and
		// refreshes with it.
		ms := append(setToSlice(cl.members), ev.From)
		_ = ctx.Send(ev.From, &clusterUpdate{Layer: int8(layer), Leader: cl.leader,
			ParentLeader: cl.parent, Members: ms}, overlay.PriorityDefault)
		return
	}
	if cl.members[ev.From] {
		return // refresh: nothing changed
	}
	cl.members[ev.From] = true
	n.broadcastUpdate(ctx, layer)
}

// broadcastUpdate sends the leader's authoritative view to every member.
func (n *Protocol) broadcastUpdate(ctx *core.Context, layer int) {
	cl := n.layers[layer]
	members := setToSlice(cl.members)
	up := &clusterUpdate{Layer: int8(layer), Leader: cl.leader,
		ParentLeader: cl.parent, Members: members}
	for _, a := range members {
		if a != n.self {
			_ = ctx.Send(a, up, overlay.PriorityDefault)
		}
	}
	ctx.NotifyNeighbors(overlay.NbrTypeClusterMember, setToSlice(cl.members))
}

func (n *Protocol) recvClusterUpdate(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*clusterUpdate)
	layer := int(m.Layer)
	members := make(map[overlay.Address]bool, len(m.Members))
	mentioned := false
	for _, a := range m.Members {
		members[a] = true
		if a == n.self {
			mentioned = true
		}
	}
	if !mentioned {
		if ctx.State() == "joining" {
			// Bounced during the descent: join via the named leader.
			_ = ctx.Send(m.Leader, &joinCluster{Layer: 0}, overlay.PriorityDefault)
			return
		}
		// Only react when the update is authoritative for the cluster we
		// believe we are in: our recorded leader dropped us, so re-join.
		// Anything else is a stale or foreign view.
		if layer >= 0 && layer < len(n.layers) && n.layers[layer].leader == m.Leader {
			_ = ctx.Send(m.Leader, &joinCluster{Layer: m.Layer}, overlay.PriorityDefault)
		}
		return
	}
	if layer < 0 || layer > maxLayers {
		return // corrupt or amplified view; ignore
	}
	// Membership at layer i requires leadership at i-1: never install a
	// view more than one layer above what we legitimately hold.
	if layer > len(n.layers) {
		return
	}
	if layer == len(n.layers) {
		if layer > 0 && n.layers[layer-1].leader != n.self {
			return
		}
		if ev.From != m.Leader && m.Leader != n.self {
			// A provisional view of a layer we do not hold yet: a redirect
			// or a bounce naming the leader to ask. Ask it, and install the
			// layer only from its own view: the named node may hold no
			// cluster at this layer at all, and a view that names it as
			// leader would never be refreshed, yet merge would hand the
			// cluster below to it.
			_ = ctx.Send(m.Leader, &joinCluster{Layer: m.Layer}, overlay.PriorityDefault)
			return
		}
		n.layers = append(n.layers, &cluster{members: map[overlay.Address]bool{n.self: true}})
	}
	cl := n.layers[layer]
	wasLeader := cl.leader == n.self
	cl.members = members
	cl.leader = m.Leader
	cl.parent = m.ParentLeader
	for a := range members {
		n.lastSeen[a] = ctx.Now()
	}
	if ctx.State() == "joining" {
		n.becomeJoined(ctx)
		ctx.TimerCancel("join_retry")
	}
	isLeader := m.Leader == n.self
	switch {
	case isLeader && !wasLeader:
		n.promote(ctx, layer)
	case !isLeader && wasLeader:
		n.demote(ctx, layer)
	}
}

// promote: a new leader of layer joins the cluster one layer up. With no
// parent hint the rendezvous point bootstraps the connection, exactly as a
// fresh join does.
func (n *Protocol) promote(ctx *core.Context, layer int) {
	parent := n.layers[layer].parent
	if parent == overlay.NilAddress || parent == n.self {
		parent = n.rp
	}
	if parent == overlay.NilAddress || parent == n.self {
		return
	}
	_ = ctx.Send(parent, &joinCluster{Layer: int8(layer + 1)}, overlay.PriorityDefault)
}

// demote: an ex-leader of layer leaves every layer above, handing its seats
// to the leader its layer view now names.
func (n *Protocol) demote(ctx *core.Context, layer int) {
	n.leave(ctx, layer+1, n.layers[layer].leader)
}

// leave gives up this node's clusters at layers from and up. Each seat goes
// to an heir: heir at layer from, and above it whoever now leads the layer
// below. Each cluster left gets a view with the heir in this node's place,
// and, where this node led, with the heir as leader, or with no heir the
// center of the members that remain. Without the hand-off, a cluster this
// node led keeps naming it as leader; this node answers the members'
// refreshes with provisional views only, and no member ever sends an
// authoritative update again, so the cluster and every cluster below it
// are cut off from the stream for good.
func (n *Protocol) leave(ctx *core.Context, from int, heir overlay.Address) {
	for i := from; i < len(n.layers); i++ {
		cl := n.layers[i]
		members := make(map[overlay.Address]bool, len(cl.members))
		for a := range cl.members {
			if a != n.self {
				members[a] = true
			}
		}
		if heir != overlay.NilAddress && heir != n.self {
			members[heir] = true
		}
		leader := cl.leader
		if leader == n.self {
			leader = heir
			if leader == overlay.NilAddress || leader == n.self {
				leader = n.center(&cluster{members: members})
			}
		}
		ms := setToSlice(members)
		up := &clusterUpdate{Layer: int8(i), Leader: leader, ParentLeader: cl.parent, Members: ms}
		for _, a := range ms {
			_ = ctx.Send(a, up, overlay.PriorityDefault)
		}
		heir = leader
	}
	if from < len(n.layers) {
		n.layers = n.layers[:from]
	}
}

// --- maintenance ------------------------------------------------------------

func (n *Protocol) onHeartbeat(ctx *core.Context) {
	for layer, cl := range n.layers {
		// Gossip distances to clustermates and probe the ones we lack.
		var addrs []overlay.Address
		for a := range n.dists {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		ds := make([]time.Duration, len(addrs))
		for i, a := range addrs {
			ds[i] = n.dists[a]
		}
		hb := &heartbeat{Layer: int8(layer), Addrs: addrs, Dists: ds}
		for _, a := range setToSlice(cl.members) {
			if a == n.self {
				continue
			}
			_ = ctx.Send(a, hb, overlay.PriorityDefault)
			if _, ok := n.dists[a]; !ok {
				n.sendProbe(ctx, a)
			}
		}
		if cl.leader == n.self {
			// The leader's view is the soft-state authority: rebroadcast it
			// every heartbeat so lost or stale updates cannot leave member
			// views divergent (divergent views break the forwarding rule).
			n.broadcastUpdate(ctx, layer)
		} else if cl.leader != overlay.NilAddress {
			// Members refresh their membership with the leader.
			_ = ctx.Send(cl.leader, &joinCluster{Layer: int8(layer)}, overlay.PriorityDefault)
		}
	}
}

func (n *Protocol) recvHeartbeat(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*heartbeat)
	n.lastSeen[ev.From] = ctx.Now()
	row := make(map[overlay.Address]time.Duration, len(m.Addrs))
	for i, a := range m.Addrs {
		if i < len(m.Dists) {
			row[a] = m.Dists[i]
		}
	}
	n.matrix[ev.From] = row
}

// onRefine is the invariant check the paper cites: "a NICE node schedules
// timers to check protocol invariants; if a cluster is unsuitably large or
// small, the node initiates a cluster split or merge".
func (n *Protocol) onRefine(ctx *core.Context) {
	now := ctx.Now()
	// Partition self-heal: a non-RP node alone in its bottom cluster
	// restarts the join descent.
	if n.self != n.rp && len(n.layers) > 0 && len(n.layers[0].members) <= 1 {
		ctx.StateChange("joining")
		n.leave(ctx, 0, overlay.NilAddress)
		n.onJoinRetry(ctx)
		return
	}
	// Enforce the hierarchy invariant: membership at layer i requires
	// leadership at layer i-1. Leave the layers above a lost leadership,
	// handing them off.
	for i := 1; i < len(n.layers); i++ {
		if n.layers[i-1].leader != n.self {
			n.demote(ctx, i-1)
			break
		}
	}
	// Upward connectivity is soft state: a node that leads its top cluster
	// must be a member one layer higher, unless it is the root; keep asking
	// until an update installs it (lost promotions heal here). The RP is
	// the root only while no one leads a layer above it: once it has lost a
	// leadership, it asks its parent like any other node.
	if top := len(n.layers) - 1; top >= 0 && n.layers[top].leader == n.self {
		target := n.layers[top].parent
		if target == overlay.NilAddress || target == n.self {
			target = n.rp
		}
		if target != n.self && target != overlay.NilAddress {
			_ = ctx.Send(target, &joinCluster{Layer: int8(top + 1)}, overlay.PriorityDefault)
		}
	}
	// Expire silent members everywhere; elect replacement leaders.
	for layer, cl := range n.layers {
		changed := false
		for _, a := range setToSlice(cl.members) {
			if a == n.self {
				continue
			}
			seen, ok := n.lastSeen[a]
			if ok && now.Sub(seen) > n.p.MemberTimeout {
				delete(cl.members, a)
				delete(n.matrix, a)
				changed = true
				if cl.leader == a {
					cl.leader = n.center(cl)
				}
			}
		}
		if changed && cl.leader == n.self {
			n.broadcastUpdate(ctx, layer)
		}
	}
	// Leader invariants, bottom-up.
	for layer := 0; layer < len(n.layers); layer++ {
		cl := n.layers[layer]
		if cl.leader != n.self {
			continue
		}
		size := len(cl.members)
		switch {
		case size > 3*n.p.K-1:
			if n.mapped(cl) {
				n.split(ctx, layer)
			}
		case size < n.p.K && layer+1 < len(n.layers):
			n.merge(ctx, layer)
		default:
			// Re-elect the center if it moved.
			if c := n.center(cl); c != n.self && c != overlay.NilAddress {
				cl.leader = c
				n.broadcastUpdate(ctx, layer)
				n.demote(ctx, layer)
			}
		}
	}
}

// dist looks up the leader's best estimate of the a↔b RTT.
func (n *Protocol) dist(a, b overlay.Address) time.Duration {
	if d, ok := n.rtt(a, b); ok {
		return d
	}
	return time.Second // unknown: pessimistic
}

// rtt is the a↔b RTT this node measured or was told, if it knows one.
func (n *Protocol) rtt(a, b overlay.Address) (time.Duration, bool) {
	if a == b {
		return 0, true
	}
	if a == n.self {
		if d, ok := n.dists[b]; ok {
			return d, true
		}
	}
	if row, ok := n.matrix[a]; ok {
		if d, ok := row[b]; ok {
			return d, true
		}
	}
	if b == n.self {
		if d, ok := n.dists[a]; ok {
			return d, true
		}
	}
	if row, ok := n.matrix[b]; ok {
		if d, ok := row[a]; ok {
			return d, true
		}
	}
	return 0, false
}

// mapped reports whether this node knows the RTT between every two members
// of a cluster. A split waits for it: split on guesses, the parts straddle
// sites, and nothing later moves a member to a closer cluster.
func (n *Protocol) mapped(cl *cluster) bool {
	ms := setToSlice(cl.members)
	for i := range ms {
		for j := i + 1; j < len(ms); j++ {
			if _, ok := n.rtt(ms[i], ms[j]); !ok {
				return false
			}
		}
	}
	return true
}

// center returns the graph-theoretic center of a cluster: the member
// minimizing its maximum distance to the others (ties to lowest address).
func (n *Protocol) center(cl *cluster) overlay.Address {
	best := overlay.NilAddress
	bestMax := time.Duration(1<<63 - 1)
	for a := range cl.members {
		var worst time.Duration
		for b := range cl.members {
			if d := n.dist(a, b); d > worst {
				worst = d
			}
		}
		if worst < bestMax || (worst == bestMax && (best == overlay.NilAddress || a < best)) {
			best, bestMax = a, worst
		}
	}
	return best
}

// split partitions an oversize cluster around its two farthest members and
// hands each part to its center, the classic NICE split.
func (n *Protocol) split(ctx *core.Context, layer int) {
	cl := n.layers[layer]
	members := setToSlice(cl.members)
	// Seeds: the farthest pair (by the leader's matrix).
	var s1, s2 overlay.Address
	var worst time.Duration = -1
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if d := n.dist(members[i], members[j]); d > worst {
				worst, s1, s2 = d, members[i], members[j]
			}
		}
	}
	if s1 == overlay.NilAddress || s2 == overlay.NilAddress {
		return
	}
	g1 := map[overlay.Address]bool{s1: true}
	g2 := map[overlay.Address]bool{s2: true}
	for _, a := range members {
		if a == s1 || a == s2 {
			continue
		}
		if n.dist(a, s1) <= n.dist(a, s2) {
			g1[a] = true
		} else {
			g2[a] = true
		}
	}
	// Each part keeps at least K members, as NICE's split does: an outlier
	// seed would otherwise lead a part of one, which merges straight back
	// into the cluster that split it off.
	n.fill(g1, g2, s1, s2)
	n.fill(g2, g1, s2, s1)
	l1 := n.center(&cluster{members: g1})
	l2 := n.center(&cluster{members: g2})
	topSplit := layer+1 >= len(n.layers)
	parent := cl.parent
	if !topSplit {
		parent = n.layers[layer+1].leader
	} else {
		// Splitting the top cluster creates the next layer: the two part
		// leaders form a fresh cluster one layer up.
		upLead := l1
		if n.dist(l2, l1) < n.dist(l1, l2) || (l2 < l1 && n.dist(l1, l2) == n.dist(l2, l1)) {
			upLead = l2
		}
		parent = upLead
		upSet := map[overlay.Address]bool{l1: true, l2: true}
		up := &clusterUpdate{Layer: int8(layer + 1), Leader: upLead,
			ParentLeader: overlay.NilAddress, Members: setToSlice(upSet)}
		for _, lead := range []overlay.Address{l1, l2} {
			if lead != n.self {
				_ = ctx.Send(lead, up, overlay.PriorityDefault)
			}
		}
		if upSet[n.self] {
			for len(n.layers) <= layer+1 {
				n.layers = append(n.layers, &cluster{members: map[overlay.Address]bool{n.self: true}})
			}
			upCl := n.layers[layer+1]
			upCl.members = upSet
			upCl.leader = upLead
			upCl.parent = overlay.NilAddress
		}
	}
	// Install whichever part we belong to; announce both.
	announce := func(lead overlay.Address, set map[overlay.Address]bool) {
		ms := setToSlice(set)
		up := &clusterUpdate{Layer: int8(layer), Leader: lead, ParentLeader: parent,
			Members: ms}
		for _, a := range ms {
			if a != n.self {
				_ = ctx.Send(a, up, overlay.PriorityDefault)
			}
		}
	}
	if g1[n.self] {
		cl.members, cl.leader = g1, l1
	} else {
		cl.members, cl.leader = g2, l2
	}
	cl.parent = parent
	announce(l1, g1)
	announce(l2, g2)
	if cl.leader != n.self {
		n.demote(ctx, layer)
	}
	ctx.Tracef(core.TraceLow, "split layer %d into %d+%d", layer, len(g1), len(g2))
}

// fill moves members from big to small, closest to small's seed first,
// until small has K members or big would drop below K. Ties go to the lower
// address, so every run fills alike.
func (n *Protocol) fill(small, big map[overlay.Address]bool, seed, other overlay.Address) {
	for len(small) < n.p.K && len(big) > n.p.K {
		best, bestD := overlay.NilAddress, time.Duration(1<<63-1)
		for _, a := range setToSlice(big) {
			if d := n.dist(a, seed); a != other && d < bestD {
				best, bestD = a, d
			}
		}
		delete(big, best)
		small[best] = true
	}
}

// merge folds an undersize cluster into the nearest sibling cluster: its
// members re-join through that sibling's leader.
func (n *Protocol) merge(ctx *core.Context, layer int) {
	upper := n.layers[layer+1]
	var target overlay.Address
	var best time.Duration = 1<<63 - 1
	for a := range upper.members {
		if a == n.self {
			continue
		}
		if d := n.dist(n.self, a); d < best {
			target, best = a, d
		}
	}
	if target == overlay.NilAddress {
		return
	}
	cl := n.layers[layer]
	for _, a := range setToSlice(cl.members) {
		if a != n.self {
			// Hand each member a provisional view of the target cluster
			// listing them; their refresh with the target completes it.
			_ = ctx.Send(a, &clusterUpdate{Layer: int8(layer), Leader: target,
				ParentLeader: upper.leader, Members: []overlay.Address{target, a}}, overlay.PriorityDefault)
		}
	}
	// Collapse our own view and step down; the target's update will restore
	// a consistent cluster listing us.
	cl.members = map[overlay.Address]bool{n.self: true}
	cl.leader = target
	n.demote(ctx, layer)
	_ = ctx.Send(target, &joinCluster{Layer: int8(layer)}, overlay.PriorityDefault)
	ctx.Tracef(core.TraceLow, "merge layer %d into cluster of %v", layer, target)
}

// --- data path ----------------------------------------------------------------

func (n *Protocol) apiMulticast(ctx *core.Context, call *core.APICall) {
	n.nextSeq++
	m := &mdata{Src: n.self, Inc: n.inc, Seq: n.nextSeq, Typ: call.PayloadType, Payload: call.Payload}
	n.forward(ctx, m, -1, call.Priority)
}

// forward implements NICE data forwarding: send to all members of every
// cluster this node belongs to, except the cluster the packet arrived from.
func (n *Protocol) forward(ctx *core.Context, m *mdata, fromLayer int, pri int) {
	sent := map[overlay.Address]bool{n.self: true}
	for layer, cl := range n.layers {
		if layer == fromLayer {
			continue
		}
		for _, a := range setToSlice(cl.members) {
			if sent[a] || a == m.Src {
				continue
			}
			sent[a] = true
			_ = ctx.Send(a, m, pri)
		}
	}
}

func (n *Protocol) recvMdata(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*mdata)
	key := pktKey{src: m.Src, inc: m.Inc, seq: m.Seq}
	if n.seen[key] {
		return
	}
	n.seen[key] = true
	if len(n.seen) > 8192 {
		n.seen = map[pktKey]bool{key: true} // coarse window reset
	}
	// Which of our clusters does the sender share with us?
	fromLayer := -1
	for layer, cl := range n.layers {
		if cl.members[ev.From] {
			fromLayer = layer
			break
		}
	}
	n.delivers++
	ctx.Deliver(m.Payload, m.Typ, m.Src)
	n.forward(ctx, m, fromLayer, overlay.PriorityDefault)
}

// setToSlice returns the members in sorted order: every send loop iterates
// these slices, which keeps simulation runs deterministic (map iteration
// order would otherwise leak runtime randomness into event order).
func setToSlice(s map[overlay.Address]bool) []overlay.Address {
	out := make([]overlay.Address, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
