package simnet

import (
	"fmt"
	"math"
	"sync"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/substrate"
	"macedon/internal/topology"
)

// MTU is the largest datagram the emulated network carries, matching
// Ethernet framing as ModelNet does.
const MTU = 1500

// Stats aggregates network-wide packet accounting.
type Stats struct {
	Sent           uint64 // datagrams entering the network
	Delivered      uint64 // datagrams handed to a receiving endpoint
	QueueDrops     uint64 // datagrams dropped at a full pipe queue
	RandomLoss     uint64 // datagrams dropped by the loss model
	DownDrops      uint64 // datagrams dropped at a failed node
	LinkDownDrops  uint64 // datagrams dropped entering a failed pipe
	DegradeLoss    uint64 // datagrams dropped by per-pipe degradation
	PartitionDrops uint64 // datagrams dropped by a network partition
	NoRouteDrops   uint64 // datagrams with no surviving route
	Bytes          uint64 // payload bytes entering the network
}

func (a Stats) add(b Stats) Stats {
	return Stats{
		Sent:           a.Sent + b.Sent,
		Delivered:      a.Delivered + b.Delivered,
		QueueDrops:     a.QueueDrops + b.QueueDrops,
		RandomLoss:     a.RandomLoss + b.RandomLoss,
		DownDrops:      a.DownDrops + b.DownDrops,
		LinkDownDrops:  a.LinkDownDrops + b.LinkDownDrops,
		DegradeLoss:    a.DegradeLoss + b.DegradeLoss,
		PartitionDrops: a.PartitionDrops + b.PartitionDrops,
		NoRouteDrops:   a.NoRouteDrops + b.NoRouteDrops,
		Bytes:          a.Bytes + b.Bytes,
	}
}

// LinkCounters is per-pipe accounting used by overhead metrics.
type LinkCounters struct {
	Packets uint64
	Bytes   uint64
	Drops   uint64
}

// Partitioner names for Config.Partitioner.
const (
	// PartitionerStriped assigns vertex v to shard v % nshards: perfectly
	// balanced, oblivious to the topology. With low-latency access links
	// spread across shards the conservative lookahead collapses to the
	// global minimum link latency. The default; also selected by "".
	PartitionerStriped = "striped"
	// PartitionerLatency clusters low-latency cliques onto one shard
	// (capacity-bounded, deterministic — see topology.PartitionLatency), so
	// only higher-latency core links cross shards and the lookahead window
	// widens. Traces are byte-identical to striped runs: execution order is
	// defined by (time, actor, seq) keys that never depend on placement.
	PartitionerLatency = "latency"
)

// Config tunes emulation behaviour.
type Config struct {
	// LossRate uniformly drops this fraction of datagrams per hop.
	// Zero by default: loss then only arises from queue overflow.
	LossRate float64
	// Partitioner selects the vertex→shard assignment strategy:
	// PartitionerStriped (default) or PartitionerLatency. Any assignment
	// yields the same traces; the choice only moves the lookahead window
	// and therefore wall-clock scaling.
	Partitioner string
}

// Network emulates the topology: it implements substrate.Network by routing
// each datagram along the shortest path and applying per-pipe bandwidth
// serialization, propagation delay, and drop-tail queuing at every hop.
//
// When the scheduler is sharded, every vertex of the topology (routers and
// client endpoints alike) is assigned to a shard, and all events touching a
// vertex's state execute on its shard. Packets hop from vertex to vertex;
// a hop whose endpoints live on different shards is handed off through the
// scheduler's cross-shard path, which the conservative lookahead (the
// minimum cross-shard link latency) makes safe and deterministic.
type Network struct {
	sched  *Scheduler
	graph  *topology.Graph
	routes *topology.Routes // failure-free oracle, for metrics
	// live is the forwarding oracle: it reads blocked when asked, and
	// liveCore is the set of failed core links (sorted) its cached trees
	// route around. See invalidatePaths.
	live     *topology.Routes
	liveCore []topology.LinkID
	cfg      Config

	nshards     int
	vertexShard []int32 // topology.RouterID -> shard
	numVertices uint64
	lossSalt    uint64

	links []linkState // indexed by topology.LinkID
	eps   map[overlay.Address]*endpoint
	// routeTabs caches live routes, one table per shard (see path).
	// pathGen stamps them: invalidatePaths bumps it, and a table whose stamp
	// is older drops its routes before the next send from its shard.
	// Written at barriers only, like the failure set it follows.
	routeTabs []routeTable
	pathGen   uint64

	blocked  map[topology.LinkID]bool
	degraded map[topology.LinkID]Degradation
	sides    map[overlay.Address]int // partition sides; nil = healed

	statsBy []shardStats // per-shard counters, summed on demand

	// pktPools recycles packet records per shard; pktGen pins packets that a
	// checkpoint's copied event heaps may still reference (see allocPacket).
	pktPools []packetPool
	pktGen   uint64
}

// packetPool is one shard's free list of packet records, padded so
// neighbouring shards' pool headers don't share a cache line. The three
// counters account for the recycler, not the pool's residency: whether a
// Get hits a pooled record depends on GC timing, but how many records were
// requested, recycled, and pinned is a pure function of the event order —
// deterministic at every shard count in aggregate. They are bumped only by
// the owning shard's goroutine (plain adds) and summed at quiescent points.
// Being counts of executed events they belong to a checkpoint, unlike the
// free list: Restore rewinds them with the rest of the accounting.
type packetPool struct {
	pool sync.Pool
	PoolStats
	_ [40]byte
}

// StateCopyOpaque marks the pool as opaque to the statecopy walk: a free
// list is scratch state, never part of a checkpoint.
func (p *packetPool) StateCopyOpaque() {}

// shardStats pads each shard's counters to cache-line multiples: every
// packet bumps several of them on the hot path, and unpadded neighbours
// would false-share lines between workers.
type shardStats struct {
	Stats
	_ [48]byte
}

// linkState is one pipe: its mutable state and, beside it, the constants of
// the topology link a hop reads (New copies them in), so that an enqueue
// opens one record. It is laid out flat and small on purpose: New allocates
// one array of these and every checkpoint copies it.
type linkState struct {
	busyUntil   time.Duration // virtual instant the pipe finishes its queue
	queuedBytes int32         // bytes in the queue, owed releases included
	owedN       int32         // live entries of owed
	ctr         LinkCounters
	seq         uint64 // the link actor's event counter
	lossSeq     uint64 // per-link deterministic loss-draw counter

	// owed is the FIFO of releases the queue still owes (see settle), in
	// key order: serialization instants only rise. The oldest owedN entries
	// sit in the array; a pipe that queues deeper — a control-plane run
	// hardly ever does, a TCP burst on an access pipe does — keeps the rest
	// in spill, which an idle pipe never allocates.
	owed  [2]owedRelease
	spill *owedSpill

	latency    time.Duration
	bandwidth  int64 // bits per second
	queueBytes int32 // drop-tail capacity
	toShard    int32 // shard owning the pipe's head vertex
}

// owedRelease is one packet's bytes waiting to leave a pipe's queue when its
// serialization completes. It stands for the event keyed (at, linkActor,
// seq) that the pipe does not put on a heap: all that event would do is
// subtract size from queuedBytes, and the only reader of queuedBytes is the
// next enqueue on the same pipe, so that enqueue applies it instead. The
// seq is not kept: it could only decide a tie against one of the pipe's own
// events, and those execute at the pipe's head vertex, which never feeds
// the pipe it was reached by.
type owedRelease struct {
	at   time.Duration
	size int32
}

// owedSpill holds the releases beyond the inline array: buf[head:].
type owedSpill struct {
	head int
	buf  []owedRelease
}

// clone returns an independent copy of the live entries, nil when there are
// none: what a checkpoint keeps, and what a restore hands back.
func (sp *owedSpill) clone() *owedSpill {
	if sp == nil || sp.head == len(sp.buf) {
		return nil
	}
	return &owedSpill{buf: append([]owedRelease(nil), sp.buf[sp.head:]...)}
}

func (ls *linkState) owe(r owedRelease) {
	if int(ls.owedN) < len(ls.owed) { // settle keeps the array full while the spill has entries
		ls.owed[ls.owedN] = r
		ls.owedN++
		return
	}
	sp := ls.spill
	if sp == nil {
		sp = &owedSpill{}
		ls.spill = sp
	}
	if sp.head > 0 && len(sp.buf) == cap(sp.buf) && sp.head >= len(sp.buf)/2 {
		// Reclaim the settled prefix instead of growing: at most half the
		// slice moves, after at least that many pops.
		sp.buf = sp.buf[:copy(sp.buf, sp.buf[sp.head:])]
		sp.head = 0
	}
	sp.buf = append(sp.buf, r)
}

// before reports whether a release at r.at by the given link actor is
// ordered before k.
func (r *owedRelease) before(k *eventKey, actor uint64) bool {
	return r.at < k.at || (r.at == k.at && actor < k.actor)
}

// settle applies every owed release ordered before cur, the latest key the
// executing shard has run: exactly the releases a heap would have popped by
// now, ties at one nanosecond included, because cur is compared with the
// key the release event would have carried.
func (ls *linkState) settle(cur *eventKey, actor uint64) {
	i, n := 0, int(ls.owedN)
	for i < n && ls.owed[i].before(cur, actor) {
		ls.queuedBytes -= ls.owed[i].size
		i++
	}
	if i == 0 {
		return
	}
	n = copy(ls.owed[:], ls.owed[i:n])
	if sp := ls.spill; sp != nil && sp.head < len(sp.buf) {
		for n == 0 && sp.head < len(sp.buf) && sp.buf[sp.head].before(cur, actor) {
			ls.queuedBytes -= sp.buf[sp.head].size
			sp.head++
		}
		moved := copy(ls.owed[n:], sp.buf[sp.head:]) // the array is the front again
		n, sp.head = n+moved, sp.head+moved
		if sp.head == len(sp.buf) {
			sp.buf, sp.head = sp.buf[:0], 0
		}
	}
	ls.owedN = int32(n)
}

// New builds an emulated network over a finished topology. The graph must
// already have all clients attached. The shard count comes from the
// scheduler; New partitions the vertices and installs the conservative
// lookahead window.
func New(sched *Scheduler, g *topology.Graph, cfg Config) *Network {
	nsh := sched.Shards()
	n := &Network{
		sched:       sched,
		graph:       g,
		cfg:         cfg,
		nshards:     nsh,
		numVertices: uint64(g.NumRouters()),
		lossSalt:    splitmix64(uint64(sched.Seed()) ^ 0x6d616365646f6e21),
		links:       make([]linkState, g.NumLinks()),
		routeTabs:   make([]routeTable, nsh),
		pathGen:     1, // never zero: a fresh table's stamp is stale
		blocked:     make(map[topology.LinkID]bool),
		degraded:    make(map[topology.LinkID]Degradation),
		statsBy:     make([]shardStats, nsh),
	}
	n.routes = topology.NewRoutes(g)
	n.live = topology.NewRoutesExcluding(g, func(l topology.LinkID) bool { return n.blocked[l] })
	switch cfg.Partitioner {
	case "", PartitionerStriped:
		n.vertexShard = topology.PartitionStriped(g, nsh)
	case PartitionerLatency:
		n.vertexShard = topology.PartitionLatency(g, nsh)
	default:
		panic(fmt.Sprintf("simnet: unknown partitioner %q (want %q or %q)",
			cfg.Partitioner, PartitionerStriped, PartitionerLatency))
	}
	n.pktPools = make([]packetPool, nsh)
	for i, l := range g.Links() { // links are numbered in order
		if l.QueueBytes > math.MaxInt32 {
			panic(fmt.Sprintf("simnet: link %d queues %d bytes; pipe queues are counted in 32 bits", l.ID, l.QueueBytes))
		}
		ls := &n.links[i]
		ls.latency, ls.bandwidth, ls.queueBytes = l.Latency, l.Bandwidth, int32(l.QueueBytes)
		ls.toShard = n.vertexShard[l.To]
	}
	if sched.net != nil {
		panic("simnet: scheduler already drives a network; flat event records admit exactly one")
	}
	sched.net = n
	for i := range n.routeTabs {
		n.routeTabs[i].refs = make(map[uint64]routeRef)
	}
	// One array holds every endpoint, each with its node substrate inside.
	clients := g.Clients()
	eps := make([]endpoint, len(clients))
	n.eps = make(map[overlay.Address]*endpoint, len(clients))
	for i, addr := range clients {
		v, _ := g.ClientVertex(addr)
		ep := &eps[i]
		*ep = endpoint{net: n, addr: addr, vertex: v, shard: int(n.vertexShard[v])}
		ep.sub = NodeSubstrate{net: n, ep: ep}
		n.eps[addr] = ep
	}
	if nsh > 1 {
		if w, ok := topology.MinCrossShardLatency(g, func(v topology.RouterID) int { return int(n.vertexShard[v]) }); ok {
			sched.SetLookahead(w)
		} else {
			// No cross-shard links at all: shards never interact.
			sched.SetLookahead(1 << 56)
		}
	}
	return n
}

// Actor identifiers for the deterministic event order: 0 is the global
// actor, vertices follow, then directed links. The numbering depends only
// on the topology, never on the shard count.
func (n *Network) vertexActor(v topology.RouterID) uint64 { return 1 + uint64(v) }
func (n *Network) linkActor(l topology.LinkID) uint64     { return 1 + n.numVertices + uint64(l) }

// Scheduler returns the clock driving the network.
func (n *Network) Scheduler() *Scheduler { return n.sched }

// Routes exposes the failure-free routing oracle (for direct-latency
// metrics).
func (n *Network) Routes() *topology.Routes { return n.routes }

// LiveRoutes exposes the forwarding oracle: the one packets are routed by,
// around whatever links are failed at the moment of the query.
func (n *Network) LiveRoutes() *topology.Routes { return n.live }

// Graph returns the underlying topology.
func (n *Network) Graph() *topology.Graph { return n.graph }

// Stats returns a snapshot of network-wide counters, summed across shards.
// Call it from the coordinating goroutine (between epochs), not from event
// handlers of a sharded run.
func (n *Network) Stats() Stats {
	var sum Stats
	for i := range n.statsBy {
		sum = sum.add(n.statsBy[i].Stats)
	}
	return sum
}

// LinkCounters returns a copy of the per-pipe counters for a link.
func (n *Network) LinkCounters(l topology.LinkID) LinkCounters { return n.links[l].ctr }

// Now implements substrate.Clock.
func (n *Network) Now() time.Time { return n.sched.Now() }

// After implements substrate.Clock using the global actor: callbacks run at
// epoch barriers when the loop is sharded. Emulated nodes must use their
// NodeSubstrate clock instead so their timers run on their own shard.
func (n *Network) After(d time.Duration, fn func()) substrate.Timer {
	return n.sched.After(d, fn)
}

// Endpoint implements substrate.Network.
func (n *Network) Endpoint(addr overlay.Address) (substrate.Endpoint, error) {
	ep, ok := n.eps[addr]
	if !ok {
		return nil, fmt.Errorf("simnet: address %v is not attached to the topology", addr)
	}
	return ep, nil
}

// NodeSubstrate is the shard-bound substrate.Network handed to one emulated
// node: its clock reads the owning shard's virtual time and its timers run
// on that shard, which is what lets node event handlers execute in parallel.
type NodeSubstrate struct {
	net *Network
	ep  *endpoint
}

// NodeNet returns the shard-bound substrate for an attached address. Nodes
// spawned through the harness always use this; constructing a node directly
// over the Network still works but serializes its timers through barriers.
func (n *Network) NodeNet(addr overlay.Address) (*NodeSubstrate, error) {
	ep, ok := n.eps[addr]
	if !ok {
		return nil, fmt.Errorf("simnet: address %v is not attached to the topology", addr)
	}
	return &ep.sub, nil
}

// Shard returns the shard the node's endpoint lives on.
func (ns *NodeSubstrate) Shard() int { return ns.ep.shard }

// Now implements substrate.Clock with the owning shard's virtual time.
func (ns *NodeSubstrate) Now() time.Time { return epoch.Add(ns.Elapsed()) }

// Elapsed returns the owning shard's virtual time since the epoch.
func (ns *NodeSubstrate) Elapsed() time.Duration { return ns.net.sched.timeOn(ns.ep.shard) }

// After implements substrate.Clock on the owning shard, keyed by the
// endpoint's actor so timer order is deterministic across shard counts.
func (ns *NodeSubstrate) After(d time.Duration, fn func()) substrate.Timer {
	t := &simTimer{fn: fn, sched: ns.net.sched, ep: ns.ep}
	t.Reset(d)
	return t
}

// Endpoint implements substrate.Network.
func (ns *NodeSubstrate) Endpoint(addr overlay.Address) (substrate.Endpoint, error) {
	return ns.net.Endpoint(addr)
}

// SetDown marks a node failed (true) or recovered (false): all datagrams to
// or from it are silently dropped, emulating a host crash for
// failure-detection experiments. Like all dynamics mutators it must run
// from the coordinating goroutine or a global-actor event (a barrier).
func (n *Network) SetDown(addr overlay.Address, down bool) error {
	ep, ok := n.eps[addr]
	if !ok {
		return fmt.Errorf("simnet: address %v is not attached to the topology", addr)
	}
	ep.down = down
	return nil
}

// routeChunkLinks is the size, in links, of the chunks a route table
// stores its paths in.
const routeChunkLinks = 4096

// routeTable is one shard's cache of the live routes its endpoints have
// sent over, keyed by (source vertex, destination vertex). An endpoint
// sends only from its own shard, so the table has one owner and needs no
// lock, and a send does one hash probe. The map's values hold no pointer:
// each names a run of links in chunks, which are filled append-only and
// never rewritten — a packet in flight, or a checkpoint's copied heap,
// still holds the paths it was sent with. A generation change clears the
// map and starts a new chunk, leaving the old ones to whoever holds them.
// Not a dense table: 10 k nodes squared is gigabytes.
type routeTable struct {
	gen    uint64 // the Network.pathGen its routes were resolved in
	refs   map[uint64]routeRef
	chunks [][]topology.LinkID
	buf    []topology.LinkID // scratch a missed route is resolved into
	_      [64]byte          // a miss writes the header: keep shards' tables off one cache line
}

// routeRef locates one cached path: chunks[chunk][off : off+n]. n is 0 for
// a destination with no route.
type routeRef struct{ chunk, off, n int32 }

// path resolves the live route from src to a vertex through src's shard
// table, nil when there is none.
func (n *Network) path(src *endpoint, dst topology.RouterID) []topology.LinkID {
	t := &n.routeTabs[src.shard]
	if t.gen != n.pathGen {
		clear(t.refs)
		clear(t.chunks) // no chunk is written again; holders keep theirs
		t.chunks, t.gen = t.chunks[:0], n.pathGen
	}
	k := routeKey(src.vertex, dst)
	r, ok := t.refs[k]
	if !ok {
		t.buf = n.live.AppendPath(t.buf[:0], src.vertex, dst)
		r = t.add(t.buf)
		t.refs[k] = r
	}
	if r.n == 0 {
		return nil
	}
	return t.chunks[r.chunk][r.off : r.off+r.n : r.off+r.n]
}

// routeKey packs a (source, destination) vertex pair into a map key.
func routeKey(src, dst topology.RouterID) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// add copies a path to the end of the current chunk, starting a new one
// when it does not fit, and returns where it went.
func (t *routeTable) add(p []topology.LinkID) routeRef {
	if len(p) == 0 {
		return routeRef{}
	}
	last := len(t.chunks) - 1
	if last < 0 || cap(t.chunks[last])-len(t.chunks[last]) < len(p) {
		t.chunks = append(t.chunks, make([]topology.LinkID, 0, max(routeChunkLinks, len(p))))
		last++
	}
	c := t.chunks[last]
	t.chunks[last] = append(c, p...)
	return routeRef{chunk: int32(last), off: int32(len(c)), n: int32(len(p))}
}

// packet is one datagram in flight. It is immutable for the duration of the
// flight: the hop index travels in the event record instead of a mutable
// field, so a checkpoint's copied event heap can replay the packet's
// remaining hops after a restore without the branch's progress having
// corrupted it.
//
// Records are pooled per shard, and a record keeps its payload storage
// (MTU bytes) across the pool: send copies the caller's datagram into it and
// delivery lends it to the receiver for one callback. Exactly one pending
// event references a packet at any instant (each arrival schedules the
// next), so the terminal event — delivery or a drop — owns it and may
// recycle it. gen pins packets across checkpoints: Network.Snapshot bumps
// pktGen, and releasePacket only recycles a packet whose gen matches the
// current generation. A packet created before the latest snapshot might be
// referenced by that snapshot's copied heap, so it stays immutable forever —
// its payload bytes included, which is what lets a restored branch deliver
// them again — and is left to the GC.
type packet struct {
	src, dst overlay.Address
	to       *endpoint // dst's endpoint; endpoints are never removed
	payload  []byte
	path     []topology.LinkID
	gen      uint64
}

// allocPacket takes a packet record from the executing shard's pool and
// copies payload (at most MTU bytes) into its storage.
func (n *Network) allocPacket(shard int, payload []byte) *packet {
	p := &n.pktPools[shard]
	p.Gets++
	pkt, ok := p.pool.Get().(*packet)
	if !ok {
		pkt = &packet{payload: make([]byte, 0, MTU)}
	}
	pkt.gen = n.pktGen
	pkt.payload = append(pkt.payload, payload...)
	return pkt
}

// releasePacket returns a terminal packet to the executing shard's pool,
// unless a snapshot generation pinned it. Fields are cleared so a recycled
// record can never leak a prior path to its next flight; the payload keeps
// only its storage, at length 0.
func (n *Network) releasePacket(shard int, pkt *packet) {
	p := &n.pktPools[shard]
	if pkt.gen != n.pktGen {
		p.Pinned++
		return // an older generation: some snapshot heap may reference it
	}
	p.Recycled++
	*pkt = packet{gen: pkt.gen, payload: pkt.payload[:0]}
	p.pool.Put(pkt)
}

// PoolStats is the packet recycler's accounting, per shard or summed.
type PoolStats struct {
	Gets     uint64 // packet records requested from the pools
	Recycled uint64 // terminal packets returned for reuse
	Pinned   uint64 // terminal packets left to the GC: a snapshot generation pins them
}

// PoolStats sums the per-shard recycler counters. Call it from the
// coordinating goroutine (between epochs), like Stats.
func (n *Network) PoolStats() PoolStats {
	var s PoolStats
	for i := range n.pktPools {
		s.Gets += n.pktPools[i].Gets
		s.Recycled += n.pktPools[i].Recycled
		s.Pinned += n.pktPools[i].Pinned
	}
	return s
}

func (n *Network) send(src *endpoint, dst overlay.Address, payload []byte) error {
	if len(payload) > MTU {
		return fmt.Errorf("simnet: datagram of %d bytes exceeds MTU %d", len(payload), MTU)
	}
	dstEp, ok := n.eps[dst]
	if !ok {
		return fmt.Errorf("simnet: destination %v is not attached", dst)
	}
	shard := src.shard
	st := &n.statsBy[shard].Stats
	st.Sent++
	st.Bytes += uint64(len(payload))
	if src.down || dstEp.down {
		st.DownDrops++
		return nil // like IP: silently dropped, sender learns nothing
	}
	if n.Partitioned(src.addr, dst) {
		st.PartitionDrops++
		return nil // partitions drop silently, like a blackholed route
	}
	if src.addr == dst {
		// Loopback bypasses the topology, as the kernel would.
		src.actorSeq++
		pkt := n.allocPacket(shard, payload)
		pkt.src, pkt.dst, pkt.to = src.addr, dst, dstEp
		n.sched.scheduleEv(shard, shard, n.sched.timeOn(shard), n.vertexActor(src.vertex), src.actorSeq,
			event{kind: evDeliver, pkt: pkt})
		return nil
	}
	path := n.path(src, dstEp.vertex)
	if path == nil {
		if len(n.blocked) > 0 {
			// Link failures severed every route: drop like a blackhole.
			st.NoRouteDrops++
			return nil
		}
		return fmt.Errorf("simnet: no route from %v to %v", src.addr, dst)
	}
	pkt := n.allocPacket(shard, payload)
	pkt.src, pkt.dst, pkt.to, pkt.path = src.addr, dst, dstEp, path
	n.enqueue(shard, pkt, 0)
	return nil
}

// enqueue places pkt at the entrance of hop's pipe. It executes on the shard
// owning the pipe's tail vertex, which also owns the pipe.
func (n *Network) enqueue(shard int, pkt *packet, hop int) {
	l := pkt.path[hop]
	st := &n.statsBy[shard].Stats
	if len(n.blocked) > 0 && n.blocked[l] {
		// The pipe failed (possibly after this packet's path was chosen):
		// everything entering it is lost.
		st.LinkDownDrops++
		n.releasePacket(shard, pkt)
		return
	}
	ls := &n.links[l]
	actor := n.linkActor(l)
	if ls.owedN > 0 {
		ls.settle(&n.sched.shards[shard].cur, actor)
	}
	size := len(pkt.payload) + headerOverhead
	if int(ls.queuedBytes)+size > int(ls.queueBytes) {
		ls.ctr.Drops++
		st.QueueDrops++
		n.releasePacket(shard, pkt)
		return
	}
	if n.cfg.LossRate > 0 && n.lossDraw(ls, l) < n.cfg.LossRate {
		st.RandomLoss++
		n.releasePacket(shard, pkt)
		return
	}
	var deg Degradation
	isDegraded := false
	if len(n.degraded) > 0 {
		deg, isDegraded = n.degraded[l]
	}
	if isDegraded && deg.LossRate > 0 && n.lossDraw(ls, l) < deg.LossRate {
		st.DegradeLoss++
		n.releasePacket(shard, pkt)
		return
	}
	ls.queuedBytes += int32(size)
	ls.ctr.Packets++
	ls.ctr.Bytes += uint64(size)

	now := n.sched.timeOn(shard)
	start := now
	if ls.busyUntil > start {
		start = ls.busyUntil
	}
	txDone := start + txTime(size, ls.bandwidth)
	ls.busyUntil = txDone
	latency := ls.latency
	if isDegraded && deg.LatencyFactor > 0 {
		latency = time.Duration(float64(latency) * deg.LatencyFactor)
	}
	arrive := txDone + latency

	// The packet's bytes leave the queue when serialization completes. The
	// release keeps its place in the link actor's sequence, so every arrival
	// is keyed exactly as if the release were an event.
	ls.seq++
	ls.owe(owedRelease{at: txDone, size: int32(size)})
	// The arrival advances the packet to the pipe's head vertex, possibly on
	// another shard. Cross-shard arrivals are always at least the link
	// latency away, which is what the lookahead window guarantees.
	ls.seq++
	n.sched.scheduleEv(shard, int(ls.toShard), arrive, actor, ls.seq,
		event{kind: evArrive, pkt: pkt, arg: int32(hop + 1)})
}

// lossDraw produces the next uniform [0,1) variate of a pipe's private loss
// process. Unlike a shared PRNG, the sequence depends only on the order of
// packets entering this pipe, so it is identical for every shard count.
func (n *Network) lossDraw(ls *linkState, l topology.LinkID) float64 {
	ls.lossSeq++
	return unitFloat(splitmix64(n.lossSalt ^ (uint64(l)+1)*0x9E3779B97F4A7C15 + ls.lossSeq))
}

// splitmix64 is the SplitMix64 mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unitFloat maps 64 random bits onto [0,1).
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// headerOverhead models IP+UDP framing so bandwidth accounting matches what
// a real pipe would carry.
const headerOverhead = 28

func txTime(sizeBytes int, bwBitsPerSec int64) time.Duration {
	if bwBitsPerSec <= 0 {
		return 0
	}
	return time.Duration(int64(sizeBytes) * 8 * int64(time.Second) / bwBitsPerSec)
}

func (n *Network) arriveHop(shard int, pkt *packet, hop int) {
	if hop < len(pkt.path) {
		n.enqueue(shard, pkt, hop)
		return
	}
	st := &n.statsBy[shard].Stats
	ep := pkt.to
	if ep.down {
		st.DownDrops++
		n.releasePacket(shard, pkt)
		return
	}
	if n.Partitioned(pkt.src, pkt.dst) {
		// The partition formed while the datagram was in flight.
		st.PartitionDrops++
		n.releasePacket(shard, pkt)
		return
	}
	n.deliver(shard, ep, pkt.src, pkt.payload)
	n.releasePacket(shard, pkt)
}

// deliverLoopback executes an evDeliver record: same-address traffic that
// bypassed the topology.
func (n *Network) deliverLoopback(shard int, pkt *packet) {
	n.deliver(shard, pkt.to, pkt.src, pkt.payload)
	n.releasePacket(shard, pkt)
}

// deliver lends payload — the packet record's storage — to the receive
// callback; the caller releases the record once the callback returns.
func (n *Network) deliver(shard int, ep *endpoint, src overlay.Address, payload []byte) {
	n.statsBy[shard].Stats.Delivered++
	if ep.recv != nil {
		ep.recv(src, payload)
	}
}

// endpoint implements substrate.Endpoint over the emulated network.
type endpoint struct {
	net      *Network
	addr     overlay.Address
	vertex   topology.RouterID
	shard    int
	actorSeq uint64
	sub      NodeSubstrate
	recv     func(src overlay.Address, payload []byte)
	down     bool
}

func (e *endpoint) Addr() overlay.Address { return e.addr }
func (e *endpoint) MTU() int              { return MTU }

func (e *endpoint) Send(dst overlay.Address, payload []byte) error {
	return e.net.send(e, dst, payload)
}

func (e *endpoint) SetRecv(fn func(src overlay.Address, payload []byte)) {
	if e.recv != nil {
		panic(fmt.Sprintf("simnet: receive handler for %v set twice", e.addr))
	}
	e.recv = fn
}
