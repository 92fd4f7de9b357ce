// Behavioral validation of the generated Pastry agent: the DSL → codegen →
// engine path produces a working prefix-routing DHT. Churn and
// routing-oracle gates live in the repository-root conformance tests; this
// is the steady-state smoke test.
package pastry_test

import (
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/pastry"
)

func TestGeneratedLeafSetsForm(t *testing.T) {
	const n = 12
	c, err := harness.NewCluster(harness.ClusterConfig{Nodes: n, Routers: 100, Seed: 425})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	stack := []core.Factory{pastry.New()}
	for i := 0; i < n; i++ {
		c.SpawnAt(i, stack, time.Duration(i)*300*time.Millisecond)
	}
	c.RunFor(45 * time.Second)

	// Every node joined, and its leaf set contains its true ring successor.
	for i, addr := range c.Addrs {
		node := c.Nodes[addr]
		if st := node.Instance("pastry").State(); st != "joined" {
			t.Fatalf("node %d state %q", i, st)
		}
		selfKey := overlay.HashAddress(addr)
		wantSucc := overlay.NilAddress
		var bestD uint32
		for _, a := range c.Addrs {
			if a == addr {
				continue
			}
			d := selfKey.Distance(overlay.HashAddress(a))
			if wantSucc == overlay.NilAddress || d < bestD {
				wantSucc, bestD = a, d
			}
		}
		var leafset []overlay.Address
		node.Exec(func() {
			ag := node.Instance("pastry").Agent().(*pastry.Agent)
			leafset = append([]overlay.Address(nil), ag.Leafset...)
		})
		found := false
		for _, a := range leafset {
			if a == wantSucc {
				found = true
			}
		}
		if !found {
			t.Errorf("node %d (%v): leafset %v misses ring successor %v", i, addr, leafset, wantSucc)
		}
	}
}

// TestZeroAgentFillsCache: a struct literal is a valid factory. Its keymap
// starts nil and is allocated on the first fill, so a cluster built from
// &Agent{} routes and caches the owner it learned.
func TestZeroAgentFillsCache(t *testing.T) {
	c, err := harness.NewCluster(harness.ClusterConfig{Nodes: 8, Routers: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	literal := func() core.Agent { return &pastry.Agent{} }
	if err := c.SpawnAll(func(int) []core.Factory { return []core.Factory{literal} }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * time.Second)
	dest := overlay.Key(0x13572468)
	src := c.Addrs[2]
	delivered := 0
	for _, a := range c.Addrs {
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func([]byte, int32, overlay.Address) { delivered++ },
		})
	}
	_ = c.Nodes[src].Route(dest, []byte("x"), 1, overlay.PriorityDefault)
	c.RunFor(5 * time.Second)
	if delivered != 1 {
		t.Fatalf("delivered %d of 1 routes", delivered)
	}
	var cached overlay.Address
	node := c.Nodes[src]
	node.Exec(func() { cached = node.Instance("pastry").Agent().(*pastry.Agent).Cache[dest] })
	if cached == overlay.NilAddress {
		t.Fatal("route did not fill the source's cache")
	}
}
