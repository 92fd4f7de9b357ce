// Package pastry_test holds the Pastry protocol's behaviour tests. The
// protocol has one implementation, the agent generated from specs/pastry.mac
// (internal/overlays/genpastry), so this directory holds tests only: joins,
// leaf sets and routing against global knowledge, the location cache under
// both cache_ms policies, the FreePastry baseline, failure removal and
// routes to a node's own key.
package pastry_test

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genpastry"
	"macedon/internal/scenario"
)

// agent returns a factory for generated Pastry with the given cache_ms.
func agent(cacheMs int32) core.Factory {
	return func() core.Agent { return &genpastry.Agent{CacheMs: cacheMs} }
}

// build spawns n nodes at once over the default topology (max(4n, 100)
// routers, as the figures use) and lets them settle.
func build(t *testing.T, n int, f core.Factory, settle time.Duration, seed int64) *harness.Cluster {
	t.Helper()
	c, err := harness.NewCluster(harness.ClusterConfig{Nodes: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopAll)
	if err := c.SpawnAll(func(int) []core.Factory { return []core.Factory{f} }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(settle)
	return c
}

// view is what the tests read of one node's agent, copied on the node's
// execution queue.
type view struct {
	joined  bool
	leafset []overlay.Address
	cache   map[overlay.Key]overlay.Address
}

func viewOf(c *harness.Cluster, a overlay.Address) view {
	var v view
	node := c.Nodes[a]
	node.Exec(func() {
		inst := node.Instance("pastry")
		ag := inst.Agent().(*genpastry.Agent)
		v.joined = inst.State() == "joined"
		v.leafset = append([]overlay.Address(nil), ag.Leafset...)
		v.cache = maps.Clone(ag.Cache)
	})
	return v
}

// routed counts the payloads a routed past its location cache: each met a
// forward upcall at a and asks the owner for a cache fill.
func routed(c *harness.Cluster, a overlay.Address) uint64 {
	var n uint64
	node := c.Nodes[a]
	node.Exec(func() { n = node.Instance("pastry").Counters().Forwarded })
	return n
}

// owner is the numerically closest node to k (ties to the lower address):
// Pastry's delivery rule.
func owner(addrs []overlay.Address, k overlay.Key) overlay.Address {
	best := addrs[0]
	bestD := overlay.RingDiff(overlay.HashAddress(best), k)
	for _, a := range addrs[1:] {
		d := overlay.RingDiff(overlay.HashAddress(a), k)
		if d < bestD || (d == bestD && a < best) {
			best, bestD = a, d
		}
	}
	return best
}

// ringNeighbors is a's true leaf set: its half closest peers clockwise and
// its half closest counter-clockwise.
func ringNeighbors(addrs []overlay.Address, a overlay.Address, half int) []overlay.Address {
	ak := overlay.HashAddress(a)
	var others []overlay.Address
	for _, b := range addrs {
		if b != a {
			others = append(others, b)
		}
	}
	side := func(dist func(overlay.Key) uint32) []overlay.Address {
		s := append([]overlay.Address(nil), others...)
		sort.Slice(s, func(i, j int) bool { return dist(overlay.HashAddress(s[i])) < dist(overlay.HashAddress(s[j])) })
		return s[:min(half, len(s))]
	}
	cw := side(func(k overlay.Key) uint32 { return ak.Distance(k) })
	return append(cw, side(func(k overlay.Key) uint32 { return k.Distance(ak) })...)
}

func TestAllNodesJoin(t *testing.T) {
	c := build(t, 20, genpastry.New(), 60*time.Second, 11)
	for _, a := range c.Addrs {
		v := viewOf(c, a)
		if !v.joined {
			t.Fatalf("node %v never joined", a)
		}
		if len(v.leafset) == 0 {
			t.Fatalf("node %v has empty leaf set", a)
		}
	}
}

// TestRoutingDeliversAtNumericallyClosest: every leaf set holds its node's
// 4 + 4 true ring neighbours, and every route ends at the key's numerically
// closest node. The 102-node inputs are Figure 12's overlay routing toward
// its 16 stripe keys from every node.
func TestRoutingDeliversAtNumericallyClosest(t *testing.T) {
	group := overlay.HashString("figure12-session")
	var stripes []overlay.Key
	for i := 0; i < 16; i++ {
		stripes = append(stripes, group.WithDigit(0, 4, i))
	}
	for _, tc := range []struct {
		nodes  int
		seed   int64
		settle time.Duration
		keys   []overlay.Key
		allSrc bool // route from every node, not only node 7
	}{
		{20, 11, 90 * time.Second, []overlay.Key{1, 0x10000000, 0x40000000, 0x7abc0000, 0x7fffffff, 0x2468ace0}, false},
		{102, 2004, 100 * time.Second, stripes, true},
		{102, 1, 100 * time.Second, stripes, true},
	} {
		t.Run(fmt.Sprintf("nodes=%d/seed=%d", tc.nodes, tc.seed), func(t *testing.T) {
			c := build(t, tc.nodes, genpastry.New(), tc.settle, tc.seed)
			imperfect := 0
			for _, a := range c.Addrs {
				leaves := viewOf(c, a).leafset
				for _, want := range ringNeighbors(c.Addrs, a, 4) {
					if !slices.Contains(leaves, want) {
						imperfect++
						t.Logf("node %v: leaf set %v misses ring neighbour %v", a, leaves, want)
						break
					}
				}
			}
			if imperfect > 0 {
				t.Errorf("%d of %d leaf sets miss a true ring neighbour", imperfect, tc.nodes)
			}

			// The payload type numbers the route; want holds its owner.
			var want []overlay.Address
			got := make(map[int32]overlay.Address)
			for _, a := range c.Addrs {
				addr := a
				c.Nodes[a].RegisterHandlers(core.Handlers{
					Deliver: func(p []byte, typ int32, src overlay.Address) { got[typ] = addr },
				})
			}
			srcs := []overlay.Address{c.Addrs[7]}
			if tc.allSrc {
				srcs = c.Addrs
			}
			for _, s := range srcs {
				for _, k := range tc.keys {
					if err := c.Nodes[s].Route(k, []byte("x"), int32(len(want)), overlay.PriorityDefault); err != nil {
						t.Fatal(err)
					}
					want = append(want, owner(c.Addrs, k))
				}
			}
			c.RunFor(10 * time.Second)
			wrong := 0
			for id, w := range want {
				g, ok := got[int32(id)]
				if !ok {
					t.Errorf("route %d (key %v) never delivered", id, tc.keys[id%len(tc.keys)])
					continue
				}
				if g != w {
					wrong++
				}
			}
			if wrong > 0 {
				t.Errorf("%d of %d routes delivered away from the numerically closest node", wrong, len(want))
			}
		})
	}
}

// TestLocationCacheShortCircuits: with cache_ms 0 the first route fills the
// source's cache and the second goes straight to the owner.
func TestLocationCacheShortCircuits(t *testing.T) {
	c := build(t, 16, agent(0), 90*time.Second, 13)
	dest := overlay.Key(0x55555555)
	own := owner(c.Addrs, dest)
	var deliveries int
	c.Nodes[own].RegisterHandlers(core.Handlers{
		Deliver: func([]byte, int32, overlay.Address) { deliveries++ },
	})
	src := c.Addrs[3]
	if src == own {
		src = c.Addrs[4]
	}
	// First route fills the cache (after delivery), then subsequent routes
	// go direct.
	_ = c.Nodes[src].Route(dest, []byte("a"), 1, overlay.PriorityDefault)
	c.RunFor(5 * time.Second)
	_ = c.Nodes[src].Route(dest, []byte("b"), 1, overlay.PriorityDefault)
	c.RunFor(5 * time.Second)
	if deliveries != 2 {
		t.Fatalf("deliveries = %d", deliveries)
	}
	if got := viewOf(c, src).cache[dest]; got != own {
		t.Fatalf("cache never filled: entry %v, want %v", got, own)
	}
	if direct := 2 - routed(c, src); direct != 1 {
		t.Fatalf("direct sends = %d, want 1 (second route short-circuited)", direct)
	}
}

// TestLocationCacheTTLExpires: with cache_ms 2000 the cache empties every
// 2 s, so a route after the flush misses and asks for a fresh fill.
func TestLocationCacheTTLExpires(t *testing.T) {
	c := build(t, 10, agent(2000), 60*time.Second, 17)
	dest := overlay.Key(0x99999999)
	src := c.Addrs[2]
	if owner(c.Addrs, dest) == src {
		src = c.Addrs[3]
	}
	_ = c.Nodes[src].Route(dest, []byte("a"), 1, overlay.PriorityDefault)
	c.RunFor(time.Second)
	if _, ok := viewOf(c, src).cache[dest]; !ok {
		t.Fatal("first route did not fill the cache")
	}
	fills0 := routed(c, src)
	// Wait past the flush; the next route must refill (stale entry evicted).
	c.RunFor(4 * time.Second)
	if _, ok := viewOf(c, src).cache[dest]; ok {
		t.Fatal("cache entry outlived the flush")
	}
	_ = c.Nodes[src].Route(dest, []byte("b"), 1, overlay.PriorityDefault)
	c.RunFor(5 * time.Second)
	if fills := routed(c, src); fills <= fills0 {
		t.Fatalf("cache not refilled after TTL: %d -> %d", fills0, fills)
	}
}

// TestRMIModeSlowsDelivery: Figure 11's FreePastry baseline — the MACEDON
// run's latency plus the RMI model's delay d = 40 ms + 0.6 ms × N for each
// forward upcall a packet meets, mean_hops − 1 of them — sits well above the
// MACEDON latency of the same run.
func TestRMIModeSlowsDelivery(t *testing.T) {
	s := &scenario.Scenario{
		Name: "rmi", Seed: 19, Nodes: 100, Routers: 400, Protocol: "pastry",
		Settle: scenario.Duration(60 * time.Second),
		Phases: []scenario.Phase{{
			Name:     "stream",
			Duration: scenario.Duration(5 * time.Second),
			Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 125, Size: 1000},
		}},
	}
	rep, err := harness.RunScenarioExec(s, harness.ExecOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Phases[0]
	plain := p.MeanLatency
	d := 40*time.Millisecond + time.Duration(s.Nodes)*600*time.Microsecond
	rmi := plain + time.Duration((p.MeanHops-1)*float64(d))
	if p.OpsDelivered == 0 || plain <= 0 {
		t.Fatal("undelivered")
	}
	if rmi < plain+50*time.Millisecond {
		t.Fatalf("RMI model adds no latency: plain=%v rmi=%v (%.2f hops)", plain, rmi, p.MeanHops)
	}
}

func TestFailureRemovesFromTables(t *testing.T) {
	c, err := harness.NewCluster(harness.ClusterConfig{
		Nodes: 12, Routers: 100, Seed: 23,
		HeartbeatAfter: 2 * time.Second, FailAfter: 8 * time.Second, Sweep: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopAll)
	if err := c.SpawnAll(func(int) []core.Factory { return []core.Factory{genpastry.New()} }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(60 * time.Second)
	victim := c.Addrs[6]
	_ = c.Net.SetDown(victim, true)
	c.Nodes[victim].Stop()
	c.RunFor(60 * time.Second)
	for _, a := range c.Addrs {
		if a == victim {
			continue
		}
		if slices.Contains(viewOf(c, a).leafset, victim) {
			t.Errorf("node %v still has dead node in leaf set", a)
		}
	}
}

func TestRouteToSelfDelivers(t *testing.T) {
	c := build(t, 6, genpastry.New(), 30*time.Second, 29)
	a := c.Addrs[1]
	var got bool
	c.Nodes[a].RegisterHandlers(core.Handlers{
		Deliver: func([]byte, int32, overlay.Address) { got = true },
	})
	_ = c.Nodes[a].Route(overlay.HashAddress(a), []byte("self"), 1, overlay.PriorityDefault)
	c.RunFor(2 * time.Second)
	if !got {
		t.Fatal("route to own key not delivered locally")
	}
}
