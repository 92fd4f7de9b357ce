package topology

import (
	"container/heap"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// boxedPQ is the container/heap frontier computeTree used before it sifted
// its own value heap: the reference the new one must match tie for tie.
type boxedPQ []pqItem

func (q boxedPQ) Len() int            { return len(q) }
func (q boxedPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q boxedPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *boxedPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *boxedPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// referenceTree is Dijkstra as it was written before the core view: over
// per-vertex out-link lists, gathered here from the link array in link
// order (the order AddLink appended them), skipping stubs per edge, with
// its own dist array.
func referenceTree(r *Routes, dst RouterID) (prev []LinkID, dist []time.Duration) {
	n := r.g.NumRouters()
	out := make([][]Link, n)
	for _, l := range r.g.Links() {
		out[l.From] = append(out[l.From], l)
	}
	prev, dist = make([]LinkID, n), make([]time.Duration, n)
	const inf = time.Duration(1<<63 - 1)
	for i := range prev {
		prev[i] = NilLink
		dist[i] = inf
	}
	dist[dst] = 0
	q := boxedPQ{{v: dst, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.dist > dist[it.v] {
			continue
		}
		for _, l := range out[it.v] {
			if r.g.stub[l.To] {
				continue // computeTree leaves client stubs out of the frontier too
			}
			if r.blocked != nil && r.blocked(r.partner(l.ID)) {
				continue
			}
			nd := it.dist + l.Latency
			if nd < dist[l.To] {
				dist[l.To] = nd
				prev[l.To] = r.partner(l.ID)
				heap.Push(&q, pqItem{v: l.To, dist: nd})
			}
		}
	}
	return prev, dist
}

// routeTestGraphs returns the two graphs the oracle tests route over, each
// with clients attached: an INET like the ones experiments run over, and a
// uniform-latency grid on which nearly every route is a tie.
func routeTestGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	inet, err := INET(DefaultINET(300, 11))
	if err != nil {
		t.Fatal(err)
	}
	AttachClients(inet, 60, 1, DefaultAccess, 12)
	grid := NewGraph()
	const side = 12
	for i := 0; i < side*side; i++ {
		grid.AddRouter()
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := RouterID(y*side + x)
			if x+1 < side {
				grid.AddLink(v, v+1, time.Millisecond, 1e9, 1<<20)
			}
			if y+1 < side {
				grid.AddLink(v, v+side, time.Millisecond, 1e9, 1<<20)
			}
		}
	}
	AttachClients(grid, 30, 1, DefaultAccess, 13)
	return map[string]*Graph{"inet": inet, "grid": grid}
}

// TestComputeTreeMatchesBoxedHeap: the value heap over the core view must
// build, for every destination, exactly the tree container/heap built over
// out-link lists — the same predecessor links where several shortest
// paths tie, since every golden trace was recorded over those routes — and
// a walk up that tree must give the reference distance from every vertex,
// or report it unreachable. Uniform latencies make ties the common case.
// Neither heap holds a client stub, so what is pinned is the pop order among
// core vertices, with and without failed core links (the predicate fails
// every seventh link, core and access alike).
func TestComputeTreeMatchesBoxedHeap(t *testing.T) {
	const inf = time.Duration(1<<63 - 1)
	for name, g := range routeTestGraphs(t) {
		for _, r := range []*Routes{NewRoutes(g), NewRoutesExcluding(g, func(l LinkID) bool { return l%7 == 3 })} {
			for dst := RouterID(0); int(dst) < g.NumRouters(); dst++ {
				got := r.computeTree(dst)
				prev, dist := referenceTree(r, dst)
				if !slices.Equal(got.prev, prev) {
					t.Fatalf("%s: tree toward %d differs from the container/heap one", name, dst)
				}
				for v := range dist {
					_, lat, ok := got.walk(g, RouterID(v), dst)
					if ok != (dist[v] != inf) || ok && lat != dist[v] {
						t.Fatalf("%s: %d→%d walks to (%v, reachable %v), the reference distance is %v", name, v, dst, lat, ok, dist[v])
					}
				}
			}
		}
	}
}

// attachmentRouters returns the distinct routers clients are attached at.
func attachmentRouters(g *Graph) map[RouterID]bool {
	out := map[RouterID]bool{}
	for _, a := range g.Clients() {
		up, _, _ := g.AccessLinks(a)
		out[g.Link(up).To] = true
	}
	return out
}

// TestWarmBuildsTheLazyTrees: the first route query of an oracle — fresh or
// flushed — builds the tree toward every attachment router, and each one is
// the tree a lone computeTree builds, with and without a failed core link.
// After the Flush four goroutines query at once, so the warm overlaps the
// trees their other misses build on demand.
func TestWarmBuildsTheLazyTrees(t *testing.T) {
	for name, g := range routeTestGraphs(t) {
		var vs []RouterID
		for _, a := range g.Clients() {
			v, _ := g.ClientVertex(a)
			vs = append(vs, v)
		}
		want := attachmentRouters(g)
		// A core link on the route between the first two clients, so that
		// failing it changes trees.
		var core LinkID = NilLink
		for _, l := range NewRoutes(g).Path(vs[0], vs[1]) {
			if !g.IsAccessLink(l) {
				core = l
				break
			}
		}
		if core == NilLink {
			t.Fatalf("%s: clients 0 and 1 share a router; pick others", name)
		}
		for _, down := range []bool{false, true} {
			blocked := func(l LinkID) bool { return down && l>>1 == core>>1 }
			r := NewRoutesExcluding(g, blocked)
			check := func(stage string) {
				t.Helper()
				if got := r.CachedTrees(); got != len(want) {
					t.Fatalf("%s, core link down %v, %s: %d trees cached, %d attachment routers", name, down, stage, got, len(want))
				}
				for dst, tr := range r.trees {
					if !want[dst] {
						t.Fatalf("%s, core link down %v, %s: a tree toward %d, which no client is attached at", name, down, stage, dst)
					}
					if lone := r.computeTree(dst); !reflect.DeepEqual(tr, lone) {
						t.Fatalf("%s, core link down %v, %s: the warm tree toward %d differs from a lone one", name, down, stage, dst)
					}
				}
			}
			r.Path(vs[0], vs[1])
			check("after one query")

			r.Flush()
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < len(vs); i += 4 {
						r.Path(vs[i], vs[(i+len(vs)/2)%len(vs)])
					}
				}()
			}
			wg.Wait()
			check("after a Flush and concurrent queries")
		}
	}
}

// TestGraphFrozenOnceRouted: the first Dijkstra freezes the graph into its
// core view, so a vertex or link added afterwards would never be routed.
func TestGraphFrozenOnceRouted(t *testing.T) {
	g, v := line3()
	NewRoutes(g).Path(v[0], v[2])
	for name, mutate := range map[string]func(){
		"AddRouter":    func() { g.AddRouter() },
		"AddLink":      func() { g.AddLink(v[0], v[2], time.Millisecond, 1e6, 1500) },
		"AttachClient": func() { g.AttachClient(100, v[1], DefaultAccess) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after routing began did not panic", name)
				}
			}()
			mutate()
		}()
	}
}

func TestComputeTreeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch at random under the race detector")
	}
	g, err := INET(DefaultINET(300, 11))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRoutes(g)
	// The tree and its prev array, once AllocsPerRun's warm-up call has left
	// the distances and the frontier in the pool (12 before they were
	// pooled, plus two per relaxed edge before the heap stopped boxing).
	if got := testing.AllocsPerRun(20, func() { r.computeTree(5) }); got > 2 {
		t.Fatalf("computeTree allocates %v times", got)
	}
}
