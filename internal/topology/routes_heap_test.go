package topology

import (
	"container/heap"
	"reflect"
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

func referenceTree(r *Routes, dst RouterID) *spt {
	n := r.g.NumRouters()
	t := &spt{prev: make([]LinkID, n), dist: make([]time.Duration, n)}
	const inf = time.Duration(1<<63 - 1)
	for i := range t.prev {
		t.prev[i] = NilLink
		t.dist[i] = inf
	}
	t.dist[dst] = 0
	q := boxedPQ{{v: dst, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.dist > t.dist[it.v] {
			continue
		}
		for _, e := range r.g.adj[it.v] {
			if r.g.stub[e.to] {
				continue // computeTree leaves client stubs out of the frontier too
			}
			if r.blocked != nil && r.blocked(r.partner(e.link)) {
				continue
			}
			nd := it.dist + r.g.links[e.link].Latency
			if nd < t.dist[e.to] {
				t.dist[e.to] = nd
				t.prev[e.to] = r.partner(e.link)
				heap.Push(&q, pqItem{v: e.to, dist: nd})
			}
		}
	}
	return t
}

// TestComputeTreeMatchesBoxedHeap: the value heap must build, for every
// destination, exactly the tree container/heap built — same distances and,
// where several shortest paths tie, the same predecessor links, since every
// golden trace was recorded over those routes. Uniform latencies make ties
// the common case. Neither heap holds a client stub, so what is pinned is the
// pop order among core vertices, with and without failed core links (the
// predicate fails every seventh link, core and access alike).
func TestComputeTreeMatchesBoxedHeap(t *testing.T) {
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
	for name, g := range map[string]*Graph{"inet": inet, "grid": grid} {
		for _, r := range []*Routes{NewRoutes(g), NewRoutesExcluding(g, func(l LinkID) bool { return l%7 == 3 })} {
			for dst := 0; dst < g.NumRouters(); dst++ {
				got, want := r.computeTree(RouterID(dst)), referenceTree(r, RouterID(dst))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: tree toward %d differs from the container/heap one", name, dst)
				}
			}
		}
	}
}

func TestComputeTreeAllocs(t *testing.T) {
	g, err := INET(DefaultINET(300, 11))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRoutes(g)
	// The tree itself (struct, prev, dist) and the frontier's few doublings;
	// the boxed heap paid two allocations per relaxed edge on top.
	if got := testing.AllocsPerRun(20, func() { r.computeTree(5) }); got > 12 {
		t.Fatalf("computeTree allocates %v times", got)
	}
}
