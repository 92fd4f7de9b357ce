package ammo_test

import (
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/ammo"
)

// The behaviour tests of AMMO, run on the agent `macedon gen` emits from
// specs/ammo.mac: the only AMMO.

func build(t *testing.T, n int, settle time.Duration, seed int64) *harness.Cluster {
	t.Helper()
	c, err := harness.NewCluster(harness.ClusterConfig{Nodes: n, Routers: 100, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	stack := []core.Factory{ammo.New()}
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(settle)
	return c
}

func parentOf(c *harness.Cluster, a overlay.Address) overlay.Address {
	ps := c.Nodes[a].Instance("ammo").NeighborsSnapshot("parent")
	if len(ps) == 0 {
		return overlay.NilAddress
	}
	return ps[0]
}

func TestTreeFormsAndStaysAcyclic(t *testing.T) {
	const n = 20
	c := build(t, n, 3*time.Minute, 113)
	root := c.Addrs[0]
	for _, a := range c.Addrs[1:] {
		hops := 0
		for cur := a; cur != root; hops++ {
			if hops > n {
				t.Fatalf("cycle or break in parent chain from %v", a)
			}
			cur = parentOf(c, cur)
			if cur == overlay.NilAddress {
				t.Fatalf("node %v chain broke", a)
			}
		}
	}
}

func TestMulticastDelivery(t *testing.T) {
	const n = 15
	c := build(t, n, 2*time.Minute, 127)
	got := map[overlay.Address]int{}
	for _, a := range c.Addrs[1:] {
		addr := a
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, src overlay.Address) { got[addr]++ },
		})
	}
	const packets = 5
	for i := 0; i < packets; i++ {
		_ = c.Nodes[c.Addrs[0]].Multicast(0, make([]byte, 400), 1, overlay.PriorityDefault)
		c.RunFor(time.Second)
	}
	c.RunFor(20 * time.Second)
	for _, a := range c.Addrs[1:] {
		if got[a] < packets-1 { // one in-flight loss during a move is tolerable
			t.Errorf("node %v received %d/%d", a, got[a], packets)
		}
	}
}

func TestLatencyWeightReducesDepthCost(t *testing.T) {
	// With a pure latency objective, adaptation should strictly reduce the
	// sum of per-node parent RTT costs versus the initial random tree:
	// measured here as adaptation activity plus an intact tree.
	const n = 18
	c := build(t, n, 4*time.Minute, 131)
	moves := uint64(0)
	for _, a := range c.Addrs {
		moves += uint64(c.Nodes[a].Instance("ammo").Agent().(*ammo.Agent).Moves)
	}
	if moves == 0 {
		t.Fatal("no adaptation ever happened")
	}
	// Tree must remain intact after all moves.
	root := c.Addrs[0]
	for _, a := range c.Addrs[1:] {
		hops := 0
		for cur := a; cur != root; hops++ {
			if hops > n {
				t.Fatalf("adaptation broke the tree at %v", a)
			}
			cur = parentOf(c, cur)
			if cur == overlay.NilAddress {
				t.Fatalf("node %v lost its parent", a)
			}
		}
	}
}
