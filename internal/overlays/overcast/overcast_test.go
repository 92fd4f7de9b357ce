package overcast_test

import (
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genovercast"
	"macedon/internal/topology"
)

// The behaviour tests of Overcast, run on the agent `macedon gen` emits from
// specs/overcast.mac: the only Overcast.

func build(t *testing.T, n int, settle time.Duration, seed int64) *harness.Cluster {
	t.Helper()
	c, err := harness.NewCluster(harness.ClusterConfig{Nodes: n, Routers: 100, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	stack := []core.Factory{genovercast.New()}
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(settle)
	return c
}

func parentOf(c *harness.Cluster, a overlay.Address) overlay.Address {
	ps := c.Nodes[a].Instance("overcast").NeighborsSnapshot("papa")
	if len(ps) == 0 {
		return overlay.NilAddress
	}
	return ps[0]
}

func TestTreeFormsAndStatesSettle(t *testing.T) {
	const n = 20
	c := build(t, n, 90*time.Second, 81)
	root := c.Addrs[0]
	for _, a := range c.Addrs[1:] {
		st := c.Nodes[a].Instance("overcast").State()
		if st == core.StateInit || st == "joining" {
			t.Fatalf("node %v stuck in %q", a, st)
		}
		hops := 0
		for cur := a; cur != root; hops++ {
			if hops > n {
				t.Fatalf("parent chain from %v broken", a)
			}
			next := parentOf(c, cur)
			if next == overlay.NilAddress {
				t.Fatalf("node %v (reached from %v) has no parent", cur, a)
			}
			cur = next
		}
	}
}

func TestMulticastFromRoot(t *testing.T) {
	const n = 15
	c := build(t, n, 90*time.Second, 83)
	got := map[overlay.Address]int{}
	for _, a := range c.Addrs[1:] {
		addr := a
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, src overlay.Address) { got[addr]++ },
		})
	}
	const packets = 5
	for i := 0; i < packets; i++ {
		_ = c.Nodes[c.Addrs[0]].Multicast(0, make([]byte, 800), 1, overlay.PriorityDefault)
		c.RunFor(time.Second)
	}
	c.RunFor(15 * time.Second)
	for _, a := range c.Addrs[1:] {
		if got[a] != packets {
			t.Errorf("node %v received %d/%d", a, got[a], packets)
		}
	}
}

func TestProbingEpisodesRun(t *testing.T) {
	c := build(t, 12, 120*time.Second, 87)
	// Someone must have probed: look for at least one node that recorded a
	// probing episode (counter via state transitions is enough: counters
	// show timer fires on keep_probing).
	probed := false
	for _, a := range c.Addrs {
		cnt := c.Nodes[a].Instance("overcast").Counters()
		if cnt.TimerFires > 0 && cnt.MsgsRecv > 0 {
			probed = true
		}
	}
	if !probed {
		t.Fatal("no probing activity observed")
	}
}

// TestRelocatesTowardBandwidth builds a topology where the root's access
// link is fat but one child sits behind a thin pipe; nodes behind the thin
// pipe should gravitate to parents on their side of it.
func TestRelocatesTowardBandwidth(t *testing.T) {
	g := topology.NewGraph()
	fast := g.AddRouter()
	slow := g.AddRouter()
	// Thin 500 Kbps pipe between the two sides.
	g.AddLink(fast, slow, 20*time.Millisecond, 500_000, 50*1500)
	fatAccess := topology.AccessLink{Latency: time.Millisecond, Bandwidth: 100_000_000, QueueBytes: 64 << 10}
	// Root and two nodes on the fast side; four nodes on the slow side.
	g.AttachClient(1, fast, fatAccess)
	g.AttachClient(2, fast, fatAccess)
	g.AttachClient(3, fast, fatAccess)
	for a := overlay.Address(4); a <= 7; a++ {
		g.AttachClient(a, slow, fatAccess)
	}
	c, err := harness.NewCluster(harness.ClusterConfig{Graph: g, Seed: 89})
	if err != nil {
		t.Fatal(err)
	}
	stack := []core.Factory{genovercast.New()}
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Minute)
	moves := uint64(0)
	for _, a := range c.Addrs {
		moves += uint64(c.Nodes[a].Instance("overcast").Agent().(*genovercast.Agent).Moves)
	}
	if moves == 0 {
		t.Fatal("no relocation ever happened despite bandwidth asymmetry")
	}
	// The tree must stay intact after all the moving.
	root := c.Addrs[0]
	for _, a := range c.Addrs[1:] {
		hops := 0
		for cur := a; cur != root; hops++ {
			if hops > 10 {
				t.Fatalf("parent chain from %v broken after moves", a)
			}
			cur = parentOf(c, cur)
			if cur == overlay.NilAddress {
				t.Fatalf("node %v lost its parent after moves", a)
			}
		}
	}
}
