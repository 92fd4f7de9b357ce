// Package splitstream_test holds SplitStream's behaviour tests. SplitStream
// exists only as the code `macedon gen` emits from specs/splitstream.mac, in
// internal/overlays/gensplitstream; these tests run it over generated Scribe
// over generated Pastry.
package splitstream_test

import (
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genpastry"
	"macedon/internal/overlays/genscribe"
	"macedon/internal/overlays/gensplitstream"
)

func forest(stripes, maxKids int32) []core.Factory {
	return []core.Factory{
		genpastry.New(),
		func() core.Agent { return &genscribe.Agent{MaxChildren: maxKids} },
		func() core.Agent { return &gensplitstream.Agent{Stripes: stripes} },
	}
}

// stripeKey is stripe i's group key: the session key with its first hex
// digit replaced by i.
func stripeKey(group overlay.Key, i int) overlay.Key { return group.WithDigit(0, 4, i) }

func build(t *testing.T, n int, stack []core.Factory, settle time.Duration, seed int64) *harness.Cluster {
	t.Helper()
	c, err := harness.NewCluster(harness.ClusterConfig{Nodes: n, Routers: 100, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(settle)
	return c
}

// TestStripeKeysDiffer: a join subscribes Scribe to one group per stripe,
// each the session key with its first hex digit replaced by the stripe
// number.
func TestStripeKeysDiffer(t *testing.T) {
	c := build(t, 2, forest(16, 0), time.Second, 59)
	g := overlay.HashString("stream")
	_ = c.Nodes[c.Addrs[1]].Join(g)
	c.RunFor(time.Second)
	groups := c.Nodes[c.Addrs[1]].Instance("scribe").Agent().(*genscribe.Agent).Groups
	seen := map[overlay.Key]bool{}
	for i := 0; i < 16; i++ {
		k := stripeKey(g, i)
		if seen[k] {
			t.Fatalf("duplicate stripe key %v", k)
		}
		seen[k] = true
		if k.Digit(0, 4) != i {
			t.Fatalf("stripe %d first digit = %x", i, k.Digit(0, 4))
		}
		if !core.KeyRead(groups, k).Member {
			t.Fatalf("stripe %d: Scribe has not joined %v", i, k)
		}
	}
	if len(groups) != 16 {
		t.Fatalf("Scribe holds %d groups, want the 16 stripes", len(groups))
	}
}

func TestForestDeliversStream(t *testing.T) {
	const n = 16
	const stripes = 4
	c := build(t, n, forest(stripes, 0), 90*time.Second, 51)
	group := overlay.HashString("video")
	recv := make(map[overlay.Address]int)
	for _, a := range c.Addrs[1:] {
		addr := a
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, src overlay.Address) { recv[addr]++ },
		})
		_ = c.Nodes[a].Join(group)
	}
	c.RunFor(60 * time.Second) // build all stripe trees
	sender := c.Nodes[c.Addrs[0]]
	const blocks = 20
	for i := 0; i < blocks; i++ {
		if err := sender.Multicast(group, make([]byte, 500), 3, overlay.PriorityDefault); err != nil {
			t.Fatal(err)
		}
		c.RunFor(200 * time.Millisecond)
	}
	c.RunFor(30 * time.Second)
	for _, a := range c.Addrs[1:] {
		if recv[a] < blocks*9/10 {
			t.Errorf("member %v received %d/%d blocks", a, recv[a], blocks)
		}
	}
}

func TestForwardingLoadSpreads(t *testing.T) {
	// The SplitStream claim: with striping plus bounded fan-out, interior
	// forwarding load spreads across members instead of concentrating on
	// the single-tree interior.
	const n = 20
	c := build(t, n, forest(8, 4), 90*time.Second, 53)
	group := overlay.HashString("spread")
	for _, a := range c.Addrs[1:] {
		_ = c.Nodes[a].Join(group)
	}
	c.RunFor(90 * time.Second)
	// Count how many nodes are interior (have children) in at least one
	// stripe tree.
	interior := 0
	for _, a := range c.Addrs {
		sc := c.Nodes[a].Instance("scribe").Agent().(*genscribe.Agent)
		kids := 0
		for i := 0; i < 8; i++ {
			kids += len(core.KeyRead(sc.Groups, stripeKey(group, i)).Children.Addrs)
		}
		if kids > 0 {
			interior++
		}
	}
	if interior < n/3 {
		t.Fatalf("only %d/%d nodes carry forwarding load; striping failed to spread it", interior, n)
	}
}

func TestStripesRoundRobin(t *testing.T) {
	c := build(t, 8, forest(4, 0), 60*time.Second, 57)
	group := overlay.HashString("rr")
	ss := c.Nodes[c.Addrs[0]].Instance("splitstream").Agent().(*gensplitstream.Agent)
	if ss.Stripes != 4 {
		t.Fatalf("stripes = %d", ss.Stripes)
	}
	for _, a := range c.Addrs[1:] {
		_ = c.Nodes[a].Join(group)
	}
	c.RunFor(60 * time.Second)
	// Watch which stripe trees carry data by checking delivery works even
	// though successive blocks ride different trees.
	var got int
	c.Nodes[c.Addrs[3]].RegisterHandlers(core.Handlers{
		Deliver: func([]byte, int32, overlay.Address) { got++ },
	})
	for i := 0; i < 8; i++ {
		_ = c.Nodes[c.Addrs[0]].Multicast(group, []byte("b"), 1, overlay.PriorityDefault)
		c.RunFor(500 * time.Millisecond)
	}
	c.RunFor(20 * time.Second)
	if got < 7 {
		t.Fatalf("round-robin striping lost blocks: %d/8", got)
	}
}
