package simnet

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/topology"
)

// diamondNet builds two clients joined by two disjoint router paths: a fast
// one (r1-r2-r4) and a slow one (r1-r3-r4), so routing has an alternative
// when a link fails. Returns the network and the fast path's middle link.
func diamondNet(t *testing.T) (*Network, *Scheduler, topology.LinkID) {
	t.Helper()
	g := topology.NewGraph()
	r1, r2, r3, r4 := g.AddRouter(), g.AddRouter(), g.AddRouter(), g.AddRouter()
	bw := int64(10_000_000)
	q := 64 << 10
	fast, _ := g.AddLink(r1, r2, 2*time.Millisecond, bw, q)
	g.AddLink(r2, r4, 2*time.Millisecond, bw, q)
	g.AddLink(r1, r3, 20*time.Millisecond, bw, q)
	g.AddLink(r3, r4, 20*time.Millisecond, bw, q)
	access := topology.AccessLink{Latency: time.Millisecond, Bandwidth: bw, QueueBytes: q}
	g.AttachClient(1, r1, access)
	g.AttachClient(2, r4, access)
	s := NewScheduler(11)
	return New(s, g, Config{}), s, fast
}

// TestLinkDownReroutes fails the fast path and expects traffic to arrive
// via the slow one — which requires invalidating the cached path.
func TestLinkDownReroutes(t *testing.T) {
	n, s, fast := diamondNet(t)
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)
	var lastAt time.Duration
	got := 0
	e2.SetRecv(func(src overlay.Address, p []byte) {
		got++
		lastAt = s.Elapsed()
	})

	// Baseline: the fast path carries the packet in ~6 ms.
	if err := e1.Send(2, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	s.RunUntilIdle()
	if got != 1 {
		t.Fatalf("baseline not delivered")
	}
	fastLatency := lastAt
	if fastLatency > 10*time.Millisecond {
		t.Fatalf("baseline took %v, expected the fast path", fastLatency)
	}

	// Fail the fast path: the cached path must be discarded and the slow
	// path used.
	n.SetLinkDown(fast, true)
	start := s.Elapsed()
	if err := e1.Send(2, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	s.RunUntilIdle()
	if got != 2 {
		t.Fatalf("not delivered after reroute (stats %+v)", n.Stats())
	}
	if d := lastAt - start; d < 40*time.Millisecond {
		t.Fatalf("rerouted delivery took %v, expected the slow path (>40ms)", d)
	}

	// Restore: back on the fast path.
	n.SetLinkDown(fast, false)
	start = s.Elapsed()
	if err := e1.Send(2, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	s.RunUntilIdle()
	if got != 3 {
		t.Fatal("not delivered after restore")
	}
	if d := lastAt - start; d > 10*time.Millisecond {
		t.Fatalf("restored delivery took %v, expected the fast path again", d)
	}
}

// TestAccessLinkDownSeversNode fails a node's access pipe: no route
// survives, sends drop silently and are counted.
func TestAccessLinkDownSeversNode(t *testing.T) {
	n, s, _ := diamondNet(t)
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)
	got := 0
	e2.SetRecv(func(overlay.Address, []byte) { got++ })

	if err := n.SetNodeAccessDown(2, true); err != nil {
		t.Fatal(err)
	}
	if err := e1.Send(2, make([]byte, 50)); err != nil {
		t.Fatalf("severed send must drop silently, got error %v", err)
	}
	s.RunUntilIdle()
	if got != 0 {
		t.Fatal("delivered across a failed access link")
	}
	if st := n.Stats(); st.NoRouteDrops != 1 {
		t.Fatalf("NoRouteDrops = %d, want 1 (stats %+v)", st.NoRouteDrops, st)
	}

	if err := n.SetNodeAccessDown(2, false); err != nil {
		t.Fatal(err)
	}
	_ = e1.Send(2, make([]byte, 50))
	s.RunUntilIdle()
	if got != 1 {
		t.Fatal("not delivered after access link restored")
	}
}

// TestPartitionAppliesAndHeals checks cross-side traffic drops (counted),
// same-side traffic flows, and healing restores connectivity.
func TestPartitionAppliesAndHeals(t *testing.T) {
	g := topology.NewGraph()
	r := g.AddRouter()
	access := topology.AccessLink{Latency: time.Millisecond, Bandwidth: 10_000_000, QueueBytes: 64 << 10}
	g.AttachClient(1, r, access)
	g.AttachClient(2, r, access)
	g.AttachClient(3, r, access)
	s := NewScheduler(5)
	n := New(s, g, Config{})
	recv := map[overlay.Address]int{}
	for _, a := range []overlay.Address{1, 2, 3} {
		ep, _ := n.Endpoint(a)
		addr := a
		ep.SetRecv(func(overlay.Address, []byte) { recv[addr]++ })
	}
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)

	n.SetPartition(map[overlay.Address]int{1: 1, 2: 1, 3: 2})
	if n.Partitioned(1, 3) != true || n.Partitioned(1, 2) != false {
		t.Fatal("Partitioned predicate wrong")
	}
	_ = e1.Send(3, make([]byte, 20)) // cross-side: dropped
	_ = e1.Send(2, make([]byte, 20)) // same side: delivered
	_ = e2.Send(1, make([]byte, 20)) // same side: delivered
	s.RunUntilIdle()
	if recv[3] != 0 {
		t.Fatal("partition leaked a datagram")
	}
	if recv[2] != 1 || recv[1] != 1 {
		t.Fatalf("same-side traffic lost: %v", recv)
	}
	if st := n.Stats(); st.PartitionDrops != 1 {
		t.Fatalf("PartitionDrops = %d, want 1", st.PartitionDrops)
	}

	n.ClearPartition()
	_ = e1.Send(3, make([]byte, 20))
	s.RunUntilIdle()
	if recv[3] != 1 {
		t.Fatal("heal did not restore connectivity")
	}
}

// TestPartitionDropsInFlight: a datagram crossing the cut when the
// partition forms is dropped on arrival.
func TestPartitionDropsInFlight(t *testing.T) {
	access := topology.AccessLink{Latency: 5 * time.Millisecond, Bandwidth: 10_000_000, QueueBytes: 64 << 10}
	n, s := twoNodeNet(t, access, Config{})
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)
	got := 0
	e2.SetRecv(func(overlay.Address, []byte) { got++ })
	_ = e1.Send(2, make([]byte, 100))
	// Partition forms while the packet is mid-path.
	s.RunFor(time.Millisecond)
	n.SetPartition(map[overlay.Address]int{1: 1, 2: 2})
	s.RunUntilIdle()
	if got != 0 {
		t.Fatal("in-flight datagram crossed a fresh partition")
	}
	if st := n.Stats(); st.PartitionDrops != 1 {
		t.Fatalf("PartitionDrops = %d, want 1", st.PartitionDrops)
	}
}

// TestDegradeLink checks the latency multiplier and extra loss process.
func TestDegradeLink(t *testing.T) {
	access := topology.AccessLink{Latency: time.Millisecond, Bandwidth: 10_000_000, QueueBytes: 64 << 10}
	n, s := twoNodeNet(t, access, Config{})
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)
	var at time.Duration
	got := 0
	e2.SetRecv(func(overlay.Address, []byte) { got++; at = s.Elapsed() })

	_ = e1.Send(2, make([]byte, 100))
	s.RunUntilIdle()
	base := at

	// 10x latency on node 1's access pipe.
	if err := n.DegradeNodeAccess(1, Degradation{LatencyFactor: 10}); err != nil {
		t.Fatal(err)
	}
	start := s.Elapsed()
	_ = e1.Send(2, make([]byte, 100))
	s.RunUntilIdle()
	if got != 2 {
		t.Fatal("degraded packet lost")
	}
	slowed := at - start
	if slowed <= base {
		t.Fatalf("degradation did not slow delivery: %v vs %v", slowed, base)
	}

	// Total loss drops everything entering the pipe.
	if err := n.DegradeNodeAccess(1, Degradation{LossRate: 0.999999999}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_ = e1.Send(2, make([]byte, 100))
	}
	s.RunUntilIdle()
	if got != 2 {
		t.Fatalf("lossy pipe still delivered (%d)", got)
	}
	if st := n.Stats(); st.DegradeLoss == 0 {
		t.Fatal("DegradeLoss not counted")
	}

	if err := n.RestoreNodeAccess(1); err != nil {
		t.Fatal(err)
	}
	_ = e1.Send(2, make([]byte, 100))
	s.RunUntilIdle()
	if got != 3 {
		t.Fatal("restore did not clear degradation")
	}
}

// TestDetachAllowsReattach: after Detach a fresh receive handler can be
// installed, the revive path of kill/revive churn.
func TestDetachAllowsReattach(t *testing.T) {
	access := topology.AccessLink{Latency: time.Millisecond, Bandwidth: 10_000_000, QueueBytes: 64 << 10}
	n, s := twoNodeNet(t, access, Config{})
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)
	first, second := 0, 0
	e2.SetRecv(func(overlay.Address, []byte) { first++ })
	_ = e1.Send(2, make([]byte, 10))
	s.RunUntilIdle()
	if err := n.Detach(2); err != nil {
		t.Fatal(err)
	}
	e2.SetRecv(func(overlay.Address, []byte) { second++ })
	_ = e1.Send(2, make([]byte, 10))
	s.RunUntilIdle()
	if first != 1 || second != 1 {
		t.Fatalf("handlers saw %d/%d deliveries, want 1/1", first, second)
	}
}

// cachedRoute returns the route from src to dst as src's shard table holds
// it, or nil when a send from src would have to ask the oracle.
func cachedRoute(n *Network, src, dst overlay.Address) []topology.LinkID {
	from, to := n.eps[src], n.eps[dst]
	t := &n.routeTabs[from.shard]
	if t.gen != n.pathGen {
		return nil
	}
	if _, ok := t.refs[routeKey(from.vertex, to.vertex)]; !ok {
		return nil
	}
	return n.path(from, to.vertex)
}

// TestShardRouteCacheGeneration: a shard's route table keeps the routes its
// endpoints have used, stamped with the generation they were resolved in.
// After a link failure, a heal and a Network.Restore the next packet from
// that endpoint must take the live route, while a packet already in flight
// keeps the path it was sent with — its bytes included, after the table has
// moved on to a new chunk.
func TestShardRouteCacheGeneration(t *testing.T) {
	n, s, fast := diamondNet(t)
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)
	var order []byte
	took := map[byte]time.Duration{}
	sentAt := map[byte]time.Duration{}
	e2.SetRecv(func(_ overlay.Address, p []byte) {
		order = append(order, p[0])
		took[p[0]] = s.Elapsed() - sentAt[p[0]]
	})
	send := func(tag byte) {
		sentAt[tag] = s.Elapsed()
		if err := e1.Send(2, []byte{tag, 99: 0}); err != nil {
			t.Fatal(err)
		}
	}
	wantFast := func(tag byte, fastPath bool) {
		t.Helper()
		d, ok := took[tag]
		if !ok || (d < 40*time.Millisecond) != fastPath {
			t.Fatalf("packet %c took %v (delivered=%v), want fast path = %v", tag, d, ok, fastPath)
		}
	}
	tab := &n.routeTabs[n.eps[1].shard]

	send('a')
	s.RunUntilIdle()
	wantFast('a', true)
	if len(tab.refs) != 1 || cachedRoute(n, 1, 2) == nil {
		t.Fatalf("the shard table caches %d routes after one send, want 1→2", len(tab.refs))
	}

	n.SetLinkDown(fast, true)
	send('b') // in flight on the slow path when the fast one heals
	// Failing a pipe that is already down is not an event: the generation
	// stands, and with it the route b was sent over.
	gen, slow := n.pathGen, cachedRoute(n, 1, 2)
	slowLinks := slices.Clone(slow)
	n.SetLinkDown(fast, true)
	if again := cachedRoute(n, 1, 2); n.pathGen != gen || again == nil || &again[0] != &slow[0] {
		t.Fatalf("a repeated link_down dropped the cached route 1→2 (generation %d -> %d)", gen, n.pathGen)
	}
	s.RunFor(5 * time.Millisecond)
	n.SetLinkDown(fast, false)
	send('c')
	if len(tab.chunks) != 1 || &tab.chunks[0][0] == &slow[0] {
		t.Fatal("the heal did not start the table on a new chunk")
	}
	s.RunUntilIdle()
	wantFast('b', false)
	wantFast('c', true)
	if string(order) != "acb" {
		t.Fatalf("arrival order %q, want c to overtake b", order)
	}
	if !slices.Equal(slow, slowLinks) {
		t.Fatalf("b's path changed in flight: %v, sent with %v", slow, slowLinks)
	}

	// A restore rewinds the failure set under a cache filled by the branch.
	cpS, cpN := s.Snapshot(), n.Snapshot()
	n.SetLinkDown(fast, true)
	send('d')
	s.RunUntilIdle()
	wantFast('d', false)
	s.Restore(cpS)
	n.Restore(cpN)
	send('e')
	s.RunUntilIdle()
	wantFast('e', true)
}

// TestRouteTableAllocs: a route table stores its paths in 4,096-link
// chunks and its map values hold no pointer, so resolving 200 endpoints ×
// 30 destinations against a warm oracle costs at most one allocation per
// 256 routes once a generation change has cleared the table (the chunks;
// the map keeps its storage; 10 measured), and at most one per 64 on the
// first fill, which also grows the map (64 measured). Both cost 7,800 while
// every path was its own array and every endpoint grew its own map.
func TestRouteTableAllocs(t *testing.T) {
	g, err := topology.INET(topology.DefaultINET(600, 3))
	if err != nil {
		t.Fatal(err)
	}
	addrs := topology.AttachClients(g, 200, 1, topology.DefaultAccess, 4)
	n := New(NewScheduler(5), g, Config{})
	n.live.Path(n.eps[addrs[0]].vertex, n.eps[addrs[1]].vertex) // builds every attachment tree
	const dsts = 30
	routes := len(addrs) * dsts
	fill := func() {
		for i, a := range addrs {
			for k := 1; k <= dsts; k++ {
				if n.path(n.eps[a], n.eps[addrs[(i+7*k)%len(addrs)]].vertex) == nil {
					t.Fatalf("no route from %v", a)
				}
			}
		}
		if got := len(n.routeTabs[0].refs); got != routes {
			t.Fatalf("the table holds %d routes, want %d", got, routes)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill()
	runtime.ReadMemStats(&after)
	first := after.Mallocs - before.Mallocs
	refill := testing.AllocsPerRun(5, func() {
		n.pathGen++ // what a link failure or heal does
		fill()
	})
	t.Logf("%d routes in %d chunks: %d allocations on the first fill, %v on a refill",
		routes, len(n.routeTabs[0].chunks), first, refill)
	if first > uint64(routes/64) {
		t.Fatalf("the first fill of %d routes costs %d allocations, want at most %d", routes, first, routes/64)
	}
	if refill > float64(routes/256) {
		t.Fatalf("a refill of %d routes costs %v allocations, want at most %d", routes, refill, routes/256)
	}
}

// TestAccessFlapsKeepTrees: shortest-path trees never enter a client stub, so
// failing and healing access pipes — all a scenario can do to a link — leaves
// the one forwarding oracle and every tree it has built in place, while
// routing still learns each cut: the drop counters are the ones a fresh
// oracle per failure set produced before the oracle became long-lived.
func TestAccessFlapsKeepTrees(t *testing.T) {
	g, err := topology.INET(topology.DefaultINET(40, 9))
	if err != nil {
		t.Fatal(err)
	}
	addrs := topology.AttachClients(g, 8, 1, topology.DefaultAccess, 9)
	s := NewScheduler(1)
	n := New(s, g, Config{})
	eps := make([]*endpoint, len(addrs))
	for i, a := range addrs {
		eps[i] = n.eps[a]
		eps[i].SetRecv(func(overlay.Address, []byte) {})
	}
	allPairs := func() {
		for _, src := range eps {
			for _, dst := range addrs {
				if src.addr != dst {
					if err := src.Send(dst, make([]byte, 64)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	allPairs()
	s.RunUntilIdle()
	live, trees := n.live, n.live.CachedTrees()
	if trees == 0 {
		t.Fatal("all-pairs traffic built no tree")
	}
	same := func(when string) {
		t.Helper()
		if n.live != live || live.CachedTrees() != trees {
			t.Fatalf("%s: forwarding oracle replaced=%v, caches %d trees, want the warmed %d",
				when, n.live != live, n.live.CachedTrees(), trees)
		}
	}
	for _, a := range addrs {
		allPairs() // in flight when the pipe fails
		s.RunFor(500 * time.Microsecond)
		if err := n.SetNodeAccessDown(a, true); err != nil {
			t.Fatal(err)
		}
		same("after link_down")
		allPairs() // routed around the cut
		s.RunUntilIdle()
		same("after traffic under the failure")
		if err := n.SetNodeAccessDown(a, false); err != nil {
			t.Fatal(err)
		}
		same("after link_up")
	}
	if st := n.Stats(); st.NoRouteDrops != 112 || st.LinkDownDrops != 56 || st.Delivered != 784 {
		t.Fatalf("noroute=%d linkdown=%d delivered=%d, want 112/56/784 as before the oracle was long-lived",
			st.NoRouteDrops, st.LinkDownDrops, st.Delivered)
	}
}
