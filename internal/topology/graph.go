// Package topology models the router-level network topologies MACEDON
// experiments run over, replacing the paper's 20,000-node INET graphs and
// ModelNet topology files. It provides a weighted graph of routers and
// client (edge) vertices, generators (INET-style power-law preferential
// attachment, explicit site matrices), and shortest-path
// routing with per-source tree caching — the "ModelNet routing and topology
// information" the paper's evaluation tools extract.
package topology

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"macedon/internal/overlay"
)

// RouterID names a vertex in the topology. Client vertices are routers too:
// a client is a stub vertex with a single access link, exactly how ModelNet
// attaches edge nodes.
type RouterID int32

// NilRouter is the invalid vertex.
const NilRouter RouterID = -1

// LinkID names a directed link. An undirected cable is a pair of LinkIDs.
type LinkID int32

// NilLink is the invalid link.
const NilLink LinkID = -1

// Link is one direction of a network pipe with the three ModelNet pipe
// parameters: propagation latency, bandwidth, and drop-tail queue capacity.
type Link struct {
	ID         LinkID
	From, To   RouterID
	Latency    time.Duration
	Bandwidth  int64 // bits per second
	QueueBytes int   // drop-tail queue capacity in bytes
}

// Graph is a directed multigraph of routers and links. Construct with
// NewGraph and the Add methods; it is immutable once routing begins, and a
// mutator called after that panics.
//
// The link array is the graph: a vertex keeps only its out-degree and its
// lowest-numbered out-link, which for a client is its uplink. Whatever
// walks adjacency (Dijkstra, the partitioners) reads the core view built
// from the links, or the links themselves.
type Graph struct {
	links []Link
	deg   []int32  // deg[v]: out-links of v
	first []LinkID // first[v]: v's lowest-numbered out-link, NilLink if none

	clients      map[overlay.Address]RouterID
	clientOrder  []overlay.Address
	clientVertex map[RouterID]overlay.Address
	// stub[v]: v is a client with a single access link — a vertex no path
	// crosses, only starts or ends at.
	stub []bool

	coreOnce sync.Once
	core     *coreView // built by the first Dijkstra; non-nil freezes the graph
}

// coreView is the graph as Dijkstra walks it, in compressed sparse row
// form: the out-edges of v are edges[off[v]:off[v+1]], in insertion order,
// with every edge into a client stub left out. Every oracle over the graph
// shares it, and the scratch its Dijkstra runs borrow.
type coreView struct {
	off     []int32
	edges   []coreEdge
	scratch sync.Pool // *dijkstraScratch, sized to the graph
}

// coreEdge is one out-edge u→to. back is its reverse direction, to→u: the
// link a packet at to takes toward u, so both the one the blocked predicate
// vetoes and the one a tree records. lat is the pipe's latency, the same in
// both directions (AddLink).
type coreEdge struct {
	to   RouterID
	back LinkID
	lat  time.Duration
}

// dijkstraScratch is what one Dijkstra needs and no tree keeps.
type dijkstraScratch struct {
	dist []time.Duration
	q    pq
}

// coreView returns the flat view, building it on first use. From then on
// the graph is frozen.
func (g *Graph) coreView() *coreView {
	g.coreOnce.Do(func() {
		n := len(g.deg)
		c := &coreView{off: make([]int32, n+1)}
		// A stable counting sort of the links by tail vertex: links are
		// numbered in insertion order, so each vertex's out-edges keep the
		// order AddLink gave them, which is Dijkstra's tie order.
		for _, l := range g.links {
			if !g.stub[l.To] {
				c.off[l.From+1]++
			}
		}
		for v := 0; v < n; v++ {
			c.off[v+1] += c.off[v]
		}
		c.edges = make([]coreEdge, c.off[n])
		next := slices.Clone(c.off[:n])
		for _, l := range g.links {
			if !g.stub[l.To] {
				c.edges[next[l.From]] = coreEdge{to: l.To, back: l.ID ^ 1, lat: l.Latency}
				next[l.From]++
			}
		}
		c.scratch.New = func() any { return &dijkstraScratch{dist: make([]time.Duration, n)} }
		g.core = c
	})
	return g.core
}

// mustBeMutable panics once routing has begun: trees are built over the
// frozen core view, so a later vertex or link would silently go unrouted.
// Experiment setup bugs should fail loudly.
func (g *Graph) mustBeMutable() {
	if g.core != nil {
		panic("topology: graph changed after routing began")
	}
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		clients:      make(map[overlay.Address]RouterID),
		clientVertex: make(map[RouterID]overlay.Address),
	}
}

// AddRouter adds a vertex and returns its id.
func (g *Graph) AddRouter() RouterID {
	g.mustBeMutable()
	id := RouterID(len(g.deg))
	g.deg = append(g.deg, 0)
	g.first = append(g.first, NilLink)
	g.stub = append(g.stub, false)
	return id
}

// reserve makes room for routers more vertices and links more directed
// links, so a generator that knows its size appends without regrowing.
func (g *Graph) reserve(routers, links int) {
	g.deg = slices.Grow(g.deg, routers)
	g.first = slices.Grow(g.first, routers)
	g.stub = slices.Grow(g.stub, routers)
	g.links = slices.Grow(g.links, links)
}

// NumRouters returns the number of vertices, clients included.
func (g *Graph) NumRouters() int { return len(g.deg) }

// NumLinks returns the number of directed links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Link returns the link with the given id.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Links returns all directed links. The returned slice is the graph's own;
// callers must not modify it.
func (g *Graph) Links() []Link { return g.links }

// Degree returns the out-degree of a vertex.
func (g *Graph) Degree(r RouterID) int { return int(g.deg[r]) }

// AddLink adds a bidirectional pipe between a and b and returns the two
// directed link ids (a→b, b→a).
func (g *Graph) AddLink(a, b RouterID, latency time.Duration, bandwidth int64, queueBytes int) (LinkID, LinkID) {
	g.mustBeMutable()
	if a == b {
		panic("topology: self link")
	}
	fwd := g.addDirected(a, b, latency, bandwidth, queueBytes)
	rev := g.addDirected(b, a, latency, bandwidth, queueBytes)
	return fwd, rev
}

func (g *Graph) addDirected(a, b RouterID, latency time.Duration, bandwidth int64, queueBytes int) LinkID {
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, From: a, To: b, Latency: latency, Bandwidth: bandwidth, QueueBytes: queueBytes})
	if g.deg[a] == 0 {
		g.first[a] = id
	}
	g.deg[a]++
	if g.deg[a] > 1 {
		g.stub[a] = false // a second link makes a client a through vertex
	}
	return id
}

// AccessLink describes the last-mile pipe used when attaching clients.
type AccessLink struct {
	Latency    time.Duration
	Bandwidth  int64
	QueueBytes int
}

// DefaultAccess is a 10 Mbps, 1 ms access pipe with a 64 KiB queue — enough
// headroom for the paper's 600 Kbps streams while still being the slowest
// hop, as stub access links are in the INET experiments.
var DefaultAccess = AccessLink{Latency: time.Millisecond, Bandwidth: 10_000_000, QueueBytes: 64 << 10}

// AttachClient creates a client vertex for addr, wired to the given router
// over the access pipe, and returns the client's vertex id. Attaching the
// same address twice panics: experiment setup bugs should fail loudly.
func (g *Graph) AttachClient(addr overlay.Address, at RouterID, access AccessLink) RouterID {
	g.mustBeMutable()
	if addr == overlay.NilAddress {
		panic("topology: cannot attach the nil address")
	}
	if _, dup := g.clients[addr]; dup {
		panic(fmt.Sprintf("topology: client %v attached twice", addr))
	}
	v := g.AddRouter()
	g.AddLink(v, at, access.Latency, access.Bandwidth, access.QueueBytes)
	g.clients[addr] = v
	g.clientOrder = append(g.clientOrder, addr)
	g.clientVertex[v] = addr
	g.stub[v] = true
	return v
}

// AccessLinks returns the directed access links of a client: up carries
// traffic from the client into the network, down the reverse. ok is false
// when the address is not attached.
func (g *Graph) AccessLinks(addr overlay.Address) (up, down LinkID, ok bool) {
	v, attached := g.clients[addr]
	if !attached || g.deg[v] == 0 {
		return NilLink, NilLink, false
	}
	up = g.first[v]
	return up, up ^ 1, true
}

// IsAccessLink reports whether l is either direction of a single-homed
// client's access pipe. Every other link is a core link: one a shortest-path
// tree may use.
func (g *Graph) IsAccessLink(l LinkID) bool {
	return g.stub[g.links[l].From] || g.stub[g.links[l].To]
}

// ClientVertex returns the vertex a client address is attached at.
func (g *Graph) ClientVertex(addr overlay.Address) (RouterID, bool) {
	v, ok := g.clients[addr]
	return v, ok
}

// ClientAt returns the client address attached at a vertex, if any.
func (g *Graph) ClientAt(v RouterID) (overlay.Address, bool) {
	a, ok := g.clientVertex[v]
	return a, ok
}

// Clients returns attached client addresses in attachment order.
func (g *Graph) Clients() []overlay.Address {
	return append([]overlay.Address(nil), g.clientOrder...)
}

// IsConnected reports whether every vertex is reachable from vertex 0.
// Every link has its reverse (AddLink), so that is one union-find
// component over the link array.
func (g *Graph) IsConnected() bool {
	parent := make([]RouterID, len(g.deg))
	for v := range parent {
		parent[v] = RouterID(v)
	}
	find := func(v RouterID) RouterID {
		for parent[v] != v {
			parent[v] = parent[parent[v]] // path halving
			v = parent[v]
		}
		return v
	}
	components := len(parent)
	for _, l := range g.links {
		if a, b := find(l.From), find(l.To); a != b {
			parent[a] = b
			components--
		}
	}
	return components <= 1
}

// spt is a shortest-path tree rooted at a destination: prev[v] is the link
// taken *out of* v on the shortest path toward the root, NilLink at the root
// and wherever the root is unreachable. A distance is a walk up prev.
type spt struct {
	prev []LinkID
}

// walk follows prev from v to the tree's root, returning the hop count and
// the summed link latencies — the integer sum Dijkstra made, in the other
// order, so exact. ok is false when v has no path to the root.
func (t *spt) walk(g *Graph, v, root RouterID) (hops int, lat time.Duration, ok bool) {
	for v != root {
		l := t.prev[v]
		if l == NilLink {
			return 0, 0, false
		}
		hops++
		lat += g.links[l].Latency
		v = g.links[l].To
	}
	return hops, lat, true
}

// Routes answers path and latency queries over a finished graph, caching one
// shortest-path tree per queried destination. Latency is the routing metric,
// as in ModelNet topology routing.
//
// Routes is safe for concurrent use: a sharded simnet queries one oracle
// from every shard. Results are pure functions of the graph and the blocked
// predicate, so concurrency (and tree eviction) never changes an answer.
//
// Trees are a function of the core graph alone. A single-homed client is
// peeled off either end of a query (endpoints) and Dijkstra never relaxes
// into one, so no tree reads — or, through the frontier's tie order, is
// shaped by — the state of an access link: that is consulted per query.
type Routes struct {
	g       *Graph
	blocked func(LinkID) bool // nil = every link usable

	mu     sync.Mutex
	trees  map[RouterID]*spt
	order  []RouterID // insertion order, for tree-budget eviction
	budget int        // max cached trees; <= 0 = unbounded
	warmed bool       // the attachment trees were built since the last Flush
}

// NewRoutes returns a route oracle for g. The graph must not change
// afterwards.
func NewRoutes(g *Graph) *Routes {
	return &Routes{g: g, trees: make(map[RouterID]*spt)}
}

// SetTreeBudget bounds the number of cached shortest-path trees; each costs
// O(vertices) memory. When the budget is exceeded the oldest tree is
// recomputed on next use (results are unaffected). n <= 0 removes the
// bound, which is also the default: simnet sets none, since trees are per
// attachment router and the router count bounds them already.
func (r *Routes) SetTreeBudget(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.budget = n
}

// CachedTrees returns how many shortest-path trees are currently retained.
func (r *Routes) CachedTrees() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.trees)
}

// NewRoutesExcluding returns a route oracle that routes around links for
// which blocked returns true — what a ModelNet core recomputes after a link
// failure. The predicate may change its answers over the oracle's life:
// access links (Graph.IsAccessLink) are asked about on every query, core
// links only while a tree is computed, so the caller must Flush when the
// answer for a core link changes.
func NewRoutesExcluding(g *Graph, blocked func(LinkID) bool) *Routes {
	return &Routes{g: g, trees: make(map[RouterID]*spt), blocked: blocked}
}

// Flush discards every cached tree. All of them, not only those through a
// link that failed: a relaxation over that link which a shorter path later
// superseded still shaped the frontier's tie order, so a kept tree could
// differ from the one a fresh oracle builds where paths tie. The next miss
// warms the oracle again.
func (r *Routes) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trees = make(map[RouterID]*spt)
	r.order = nil
	r.warmed = false
}

type pqItem struct {
	v    RouterID
	dist time.Duration
}

// pq is Dijkstra's frontier: a binary min-heap on dist, implemented
// directly on the value slice. container/heap would box every pqItem into
// an interface{} on Push and again on Pop — two allocations per relaxed edge,
// the bulk of a cold route's cost. push and pop move a hole where
// container/heap swaps, but make the same comparisons on the same
// arrangement, so equal-distance ties pop in the same order and every tree
// is the one the boxed heap built. That order is why the frontier stays a
// binary heap: a 4-ary, radix or decrease-key one pops ties differently.
type pq []pqItem

func (q *pq) push(it pqItem) {
	h := append(*q, it)
	*q = h
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if it.dist >= h[i].dist {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	top, x := h[0], h[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].dist < h[j].dist {
			j++
		}
		if h[j].dist >= x.dist {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
	*q = h[:n]
	return top
}

// tree returns the cached shortest-path tree toward dst, computing it on a
// miss. The computation runs outside the lock (two shards racing on the
// same destination just do the work twice — the trees are identical); a
// finished tree is immutable, so holders may keep using one the budget
// evicts. The first miss of an unbounded oracle since its last Flush warms
// it first, which builds dst's tree whenever dst is an attachment router.
func (r *Routes) tree(dst RouterID) *spt {
	r.mu.Lock()
	if t, ok := r.trees[dst]; ok {
		r.mu.Unlock()
		return t
	}
	warm := r.budget <= 0 && !r.warmed
	if warm {
		r.warmed = true
	}
	r.mu.Unlock()
	if warm {
		r.warm()
		return r.tree(dst)
	}
	t := r.computeTree(dst)
	r.mu.Lock()
	defer r.mu.Unlock()
	if exist, ok := r.trees[dst]; ok {
		return exist
	}
	r.trees[dst] = t
	r.order = append(r.order, dst)
	if r.budget > 0 && len(r.trees) > r.budget {
		old := r.order[0]
		r.order = r.order[1:]
		delete(r.trees, old)
	}
	return t
}

// warm builds every missing tree toward a client's attachment router — the
// destinations forwarding asks for — on GOMAXPROCS workers it starts and
// waits for. Trees are pure functions of the graph and the failed core
// links, so which worker builds which is invisible in the result.
//
// The workers call the blocked predicate while the caller's shard is
// parked in this call and other shards run their windows. That is safe
// because dynamics change the predicate's answers (simnet's
// Network.blocked) only at barriers, when no window runs, and Flush is
// called there too.
func (r *Routes) warm() {
	seen := make([]bool, r.g.NumRouters())
	var dsts []RouterID
	r.mu.Lock()
	for _, addr := range r.g.clientOrder {
		v := r.g.clients[addr]
		if _, rt, ok := r.access(v); ok {
			v = rt
		}
		if _, cached := r.trees[v]; !cached && !seen[v] {
			seen[v] = true
			dsts = append(dsts, v)
		}
	}
	r.mu.Unlock()
	if len(dsts) == 0 {
		return
	}
	built := make([]*spt, len(dsts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(dsts)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(dsts)); i = next.Add(1) - 1 {
				built[i] = r.computeTree(dsts[i])
			}
		}()
	}
	wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, dst := range dsts {
		if _, ok := r.trees[dst]; !ok {
			r.trees[dst] = built[i]
			r.order = append(r.order, dst)
		}
	}
}

// computeTree runs Dijkstra toward dst over the graph's core view. Because
// every link is one half of a symmetric pair, Dijkstra from dst over
// out-links yields correct paths toward dst. Client stubs are not in the
// view: a path only starts or ends at one, and endpoints has peeled those
// hops off before a tree is consulted. The distances and the frontier are
// borrowed scratch; the tree keeps prev alone.
func (r *Routes) computeTree(dst RouterID) *spt {
	c := r.g.coreView()
	s := c.scratch.Get().(*dijkstraScratch)
	t := &spt{prev: make([]LinkID, len(s.dist))}
	const inf = time.Duration(1<<63 - 1)
	dist := s.dist
	for i := range t.prev {
		t.prev[i] = NilLink
		dist[i] = inf
	}
	dist[dst] = 0
	q := append(s.q[:0], pqItem{v: dst, dist: 0})
	for len(q) > 0 {
		it := q.pop()
		if it.dist > dist[it.v] {
			continue
		}
		// e goes it.v→e.to; the reverse direction is the same pipe, so
		// walking out-edges from dst explores paths *to* dst. The link
		// traffic would actually traverse is e.back: that is the one the
		// blocked predicate must veto, and the one out of e.to toward it.v.
		for _, e := range c.edges[c.off[it.v]:c.off[it.v+1]] {
			if r.blocked != nil && r.blocked(e.back) {
				continue
			}
			if nd := it.dist + e.lat; nd < dist[e.to] {
				dist[e.to] = nd
				t.prev[e.to] = e.back
				q.push(pqItem{v: e.to, dist: nd})
			}
		}
	}
	s.q = q
	c.scratch.Put(s)
	return t
}

// partner returns the reverse direction of a link. AddLink always appends
// the two directions adjacently, so the partner differs in the low bit.
func (r *Routes) partner(l LinkID) LinkID { return l ^ 1 }

// access returns a degree-1 client vertex's single out-link and attachment
// router. ok is false for core routers (and for any multi-homed client),
// which keep the plain tree lookup.
func (r *Routes) access(v RouterID) (up LinkID, router RouterID, ok bool) {
	if !r.g.stub[v] {
		return NilLink, NilRouter, false
	}
	up = r.g.first[v]
	return up, r.g.links[up].To, true
}

// endpoints decomposes a (src, dst) query around degree-1 client endpoints:
// every path out of such a client starts on its uplink and every path into
// one ends on its downlink, so the oracle only ever needs shortest-path
// trees toward CORE routers. This is the memory wall of very large
// populations: one tree per client destination is O(clients × vertices),
// one per core router is bounded by the (much smaller) router count.
// ok is false when a required access link is blocked — the query answer is
// then "unreachable", exactly what the full-graph tree would have said.
func (r *Routes) endpoints(src, dst RouterID) (coreSrc, coreDst RouterID, up, down LinkID, ok bool) {
	coreSrc, coreDst, up, down = src, dst, NilLink, NilLink
	if l, rt, isAccess := r.access(src); isAccess {
		if r.blocked != nil && r.blocked(l) {
			return 0, 0, NilLink, NilLink, false
		}
		up, coreSrc = l, rt
	}
	if l, rt, isAccess := r.access(dst); isAccess {
		d := r.partner(l) // l leaves dst; traffic enters over the partner
		if r.blocked != nil && r.blocked(d) {
			return 0, 0, NilLink, NilLink, false
		}
		down, coreDst = d, rt
	}
	return coreSrc, coreDst, up, down, true
}

// Path returns the directed links from src to dst, in traversal order, or
// nil if unreachable (or src == dst), allocated at its exact length.
func (r *Routes) Path(src, dst RouterID) []LinkID { return r.AppendPath(nil, src, dst) }

// AppendPath appends the directed links from src to dst, in traversal
// order, to buf and returns the extended slice; nothing is appended when dst
// is unreachable or src == dst. It walks the tree once to count the hops and
// grows buf at most once.
func (r *Routes) AppendPath(buf []LinkID, src, dst RouterID) []LinkID {
	if src == dst {
		return buf
	}
	coreSrc, coreDst, up, down, ok := r.endpoints(src, dst)
	if !ok {
		return buf
	}
	// With one attachment router (or one endpoint the other's router) the
	// path is just the access hops.
	var t *spt
	n := 0
	if coreSrc != coreDst {
		t = r.tree(coreDst)
		if n, _, ok = t.walk(r.g, coreSrc, coreDst); !ok {
			return buf
		}
	}
	if up != NilLink {
		n++
	}
	if down != NilLink {
		n++
	}
	buf = slices.Grow(buf, n)
	if up != NilLink {
		buf = append(buf, up)
	}
	for v := coreSrc; v != coreDst; {
		l := t.prev[v]
		buf = append(buf, l)
		v = r.g.links[l].To
	}
	if down != NilLink {
		buf = append(buf, down)
	}
	return buf
}

// Latency returns the propagation latency of the shortest path src→dst, or
// a negative duration if unreachable.
func (r *Routes) Latency(src, dst RouterID) time.Duration {
	if src == dst {
		return 0
	}
	coreSrc, coreDst, up, down, ok := r.endpoints(src, dst)
	if !ok {
		return -1
	}
	var d time.Duration
	if up != NilLink {
		d += r.g.links[up].Latency
	}
	if down != NilLink {
		d += r.g.links[down].Latency
	}
	if coreSrc == coreDst {
		return d
	}
	_, core, ok := r.tree(coreDst).walk(r.g, coreSrc, coreDst)
	if !ok {
		return -1
	}
	return d + core
}

// ClientLatency returns the one-way propagation latency between two client
// addresses: the "direct IP" latency that stretch and RDP metrics divide by.
func (r *Routes) ClientLatency(a, b overlay.Address) (time.Duration, error) {
	va, ok := r.g.ClientVertex(a)
	if !ok {
		return 0, fmt.Errorf("topology: client %v not attached", a)
	}
	vb, ok := r.g.ClientVertex(b)
	if !ok {
		return 0, fmt.Errorf("topology: client %v not attached", b)
	}
	d := r.Latency(va, vb)
	if d < 0 {
		return 0, fmt.Errorf("topology: clients %v and %v are disconnected", a, b)
	}
	return d, nil
}
