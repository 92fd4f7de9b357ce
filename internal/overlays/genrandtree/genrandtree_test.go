// Behavioral validation of the generated RandTree agent: the DSL → codegen
// → engine path produces a working overlay, the end-to-end claim of §3.2.
package genrandtree_test

import (
	"bytes"
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genrandtree"
)

func build(t *testing.T, n int, settle time.Duration) *harness.Cluster {
	t.Helper()
	c, err := harness.NewCluster(harness.ClusterConfig{Nodes: n, Routers: 100, Seed: 151})
	if err != nil {
		t.Fatal(err)
	}
	stack := []core.Factory{genrandtree.New()}
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(settle)
	return c
}

func TestGeneratedTreeForms(t *testing.T) {
	const n = 20
	c := build(t, n, 60*time.Second)
	root := c.Addrs[0]
	for _, a := range c.Addrs[1:] {
		if st := c.Nodes[a].Instance("randtree").State(); st != "joined" {
			t.Fatalf("generated node %v state %q", a, st)
		}
		hops := 0
		for cur := a; cur != root; hops++ {
			if hops > n {
				t.Fatalf("parent chain from %v broken", a)
			}
			ps := c.Nodes[cur].Instance("randtree").NeighborsSnapshot("parent")
			if len(ps) == 0 {
				t.Fatalf("node %v has no parent", cur)
			}
			cur = ps[0]
		}
	}
	// Generated degree bound (MAX_KIDS = 4 from the spec's constants).
	for _, a := range c.Addrs {
		if kids := c.Nodes[a].Instance("randtree").NeighborsSnapshot("kids"); len(kids) > 4 {
			t.Fatalf("node %v exceeds generated degree bound: %d", a, len(kids))
		}
	}
}

func TestGeneratedMulticastAndCollect(t *testing.T) {
	const n = 15
	c := build(t, n, 60*time.Second)
	got := map[overlay.Address]int{}
	for _, a := range c.Addrs[1:] {
		addr := a
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, src overlay.Address) { got[addr]++ },
		})
	}
	const packets = 5
	for i := 0; i < packets; i++ {
		_ = c.Nodes[c.Addrs[0]].Multicast(0, []byte("generated"), 3, overlay.PriorityDefault)
		c.RunFor(time.Second)
	}
	c.RunFor(10 * time.Second)
	for _, a := range c.Addrs[1:] {
		if got[a] != packets {
			t.Errorf("node %v received %d/%d", a, got[a], packets)
		}
	}
	// Collect flows to the root.
	collected := 0
	c.Nodes[c.Addrs[0]].RegisterHandlers(core.Handlers{
		Deliver: func([]byte, int32, overlay.Address) { collected++ },
	})
	for _, a := range c.Addrs[1:] {
		_ = c.Nodes[a].Collect(0, []byte("up"), 2, overlay.PriorityDefault)
	}
	c.RunFor(10 * time.Second)
	if collected != n-1 {
		t.Fatalf("root collected %d/%d", collected, n-1)
	}
}

// TestForwardedFrameKeepsSourceFields: an interior node builds the frame it
// forwards from fields of the frame it received, both living in the agent's
// message scratch, and delivers the received one afterwards. Across a tree at
// least three levels deep, with several 1000-byte payloads in flight at once,
// every node below the root must see every payload intact, in order, and
// attributed to the root — what a slot shared between the two directions, or
// reused before its transition was done, would corrupt.
func TestForwardedFrameKeepsSourceFields(t *testing.T) {
	const n, packets, size = 15, 8, 1000
	c := build(t, n, 60*time.Second)
	defer c.StopAll()
	root := c.Addrs[0]
	depth := 0
	for _, a := range c.Addrs[1:] {
		hops := 0
		for cur := a; cur != root && hops <= n; hops++ {
			cur = c.Nodes[cur].Instance("randtree").NeighborsSnapshot("parent")[0]
		}
		depth = max(depth, hops)
	}
	if depth < 2 {
		t.Fatalf("tree is %d levels below the root: nothing is forwarded twice", depth)
	}
	payload := func(i int) []byte {
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i*31 + j*7 + j/256)
		}
		return p
	}
	got := map[overlay.Address]int{}
	for _, a := range c.Addrs[1:] {
		addr := a
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, src overlay.Address) {
				i := got[addr]
				got[addr]++
				if src != root || typ != int32(100+i) || !bytes.Equal(p, payload(i)) {
					t.Errorf("node %v, packet %d: src %v typ %d, payload intact: %v", addr, i, src, typ, bytes.Equal(p, payload(i)))
				}
			},
		})
	}
	for i := 0; i < packets; i++ {
		_ = c.Nodes[root].Multicast(0, payload(i), int32(100+i), overlay.PriorityDefault)
	}
	c.RunFor(20 * time.Second)
	for _, a := range c.Addrs[1:] {
		if got[a] != packets {
			t.Errorf("node %v received %d/%d", a, got[a], packets)
		}
	}
}
