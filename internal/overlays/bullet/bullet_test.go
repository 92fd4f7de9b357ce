package bullet_test

import (
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/bullet"
	"macedon/internal/overlays/randtree"
)

// stack is the Bullet generated from specs/bullet.mac over the RandTree
// generated from specs/randtree.mac, whose nodes adopt up to four children.
// Each Bullet agent gets params through SetParam before init runs.
func stack(params map[string]int32) []core.Factory {
	return []core.Factory{randtree.New(), func() core.Agent {
		a := &bullet.Agent{}
		for name, v := range params {
			a.SetParam(name, v)
		}
		return a
	}}
}

func build(t *testing.T, n int, s []core.Factory, settle time.Duration, seed int64) *harness.Cluster {
	t.Helper()
	c, err := harness.NewCluster(harness.ClusterConfig{Nodes: n, Routers: 100, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SpawnAll(func(int) []core.Factory { return s }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(settle)
	return c
}

func bulletOf(c *harness.Cluster, a overlay.Address) *bullet.Agent {
	return c.Nodes[a].Instance("bullet").Agent().(*bullet.Agent)
}

func TestMeshRecoversStripedBlocks(t *testing.T) {
	const n = 16
	c := build(t, n, stack(nil), 60*time.Second, 103)
	src := c.Nodes[c.Addrs[0]]
	const blocks = 60
	for i := 0; i < blocks; i++ {
		_ = src.Multicast(0, make([]byte, 500), 1, overlay.PriorityDefault)
		c.RunFor(200 * time.Millisecond)
	}
	c.RunFor(2 * time.Minute) // epochs + mesh recovery
	for _, a := range c.Addrs[1:] {
		b := bulletOf(c, a)
		if b.Held.Len() < blocks*3/4 {
			t.Errorf("node %v holds %d/%d blocks (tree=%d mesh=%d peers=%d)",
				a, b.Held.Len(), blocks, b.FromTree, b.FromMesh, len(b.Peers))
		}
	}
	// The whole point of Bullet: a meaningful share came from the mesh.
	var tree, mesh int32
	for _, a := range c.Addrs[1:] {
		b := bulletOf(c, a)
		tree += b.FromTree
		mesh += b.FromMesh
	}
	if mesh == 0 {
		t.Fatal("no blocks recovered from the mesh")
	}
	t.Logf("tree=%d mesh=%d", tree, mesh)
}

func TestTreeAloneDeliversSubset(t *testing.T) {
	// Striping means interior subtrees see only a slice of the stream down
	// the tree — the gap Bullet's mesh fills. A node's tree count excludes
	// what the mesh brought first, so one mesh peer cannot hide it.
	const n = 12
	c := build(t, n, stack(map[string]int32{"max_peers": 1}), 60*time.Second, 107)
	src := c.Nodes[c.Addrs[0]]
	const blocks = 40
	for i := 0; i < blocks; i++ {
		_ = src.Multicast(0, make([]byte, 300), 1, overlay.PriorityDefault)
		c.RunFor(100 * time.Millisecond)
	}
	c.RunFor(30 * time.Second)
	full, meshed := 0, 0
	for _, a := range c.Addrs[1:] {
		b := bulletOf(c, a)
		if b.FromTree >= blocks {
			full++
		}
		if len(b.Peers) > 2 {
			meshed++
		}
	}
	if meshed != 0 {
		t.Fatalf("%d nodes hold more than the two peers max_peers 1 accepts", meshed)
	}
	if full != 0 {
		t.Fatalf("%d nodes got the full stream from the tree alone; striping is not striping", full)
	}
}

func TestPeersForm(t *testing.T) {
	c := build(t, 12, stack(nil), 2*time.Minute, 109)
	src := c.Nodes[c.Addrs[0]]
	for i := 0; i < 20; i++ {
		_ = src.Multicast(0, make([]byte, 200), 1, overlay.PriorityDefault)
		c.RunFor(500 * time.Millisecond)
	}
	c.RunFor(time.Minute)
	peered := 0
	for _, a := range c.Addrs[1:] {
		if len(bulletOf(c, a).Peers) > 0 {
			peered++
		}
	}
	if peered < 6 {
		t.Fatalf("only %d/11 nodes found mesh peers", peered)
	}
}
