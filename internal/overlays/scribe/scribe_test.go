package scribe_test

import (
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genchord"
	"macedon/internal/overlays/genpastry"
	"macedon/internal/overlays/scribe"
)

// overPastry and overChord are the paper's one-line DHT switch.
func overPastry(sp scribe.Params) []core.Factory {
	return []core.Factory{genpastry.New(), scribe.New(sp)}
}

func overChord(sp scribe.Params) []core.Factory {
	return []core.Factory{genchord.New(), scribe.New(sp)}
}

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

func scribeOf(c *harness.Cluster, a overlay.Address) *scribe.Protocol {
	return c.Nodes[a].Instance("scribe").Agent().(*scribe.Protocol)
}

func testMulticastReachesAllMembers(t *testing.T, stack []core.Factory) {
	t.Helper()
	const n = 16
	c := build(t, n, stack, 90*time.Second, 31)
	group := overlay.HashString("session-1")
	got := make(map[overlay.Address]int)
	for _, a := range c.Addrs {
		addr := a
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, src overlay.Address) {
				if typ == 42 {
					got[addr]++
				}
			},
		})
	}
	// Everyone except the sender joins.
	sender := c.Addrs[0]
	for _, a := range c.Addrs[1:] {
		if err := c.Nodes[a].Join(group); err != nil {
			t.Fatal(err)
		}
	}
	c.RunFor(30 * time.Second) // trees build
	const packets = 5
	for i := 0; i < packets; i++ {
		if err := c.Nodes[sender].Multicast(group, []byte("payload"), 42, overlay.PriorityDefault); err != nil {
			t.Fatal(err)
		}
		c.RunFor(time.Second)
	}
	c.RunFor(20 * time.Second)
	for _, a := range c.Addrs[1:] {
		if got[a] != packets {
			t.Errorf("member %v received %d/%d packets", a, got[a], packets)
		}
	}
	if got[sender] != 0 {
		t.Errorf("non-member sender received %d packets", got[sender])
	}
}

func TestMulticastOverPastry(t *testing.T) {
	testMulticastReachesAllMembers(t, overPastry(scribe.Params{}))
}

// TestMulticastOverChord is the paper's headline interoperability claim:
// switching Scribe's DHT is a one-line change.
func TestMulticastOverChord(t *testing.T) {
	testMulticastReachesAllMembers(t, overChord(scribe.Params{}))
}

func TestAnycastReachesExactlyOneMember(t *testing.T) {
	c := build(t, 12, overPastry(scribe.Params{}), 90*time.Second, 37)
	group := overlay.HashString("anycast-group")
	var hits int
	for _, a := range c.Addrs[2:6] {
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, src overlay.Address) {
				if typ == 7 {
					hits++
				}
			},
		})
		_ = c.Nodes[a].Join(group)
	}
	c.RunFor(30 * time.Second)
	_ = c.Nodes[c.Addrs[10]].Anycast(group, []byte("any"), 7, overlay.PriorityDefault)
	c.RunFor(15 * time.Second)
	if hits != 1 {
		t.Fatalf("anycast delivered to %d members, want exactly 1", hits)
	}
}

func TestCollectReachesRoot(t *testing.T) {
	c := build(t, 10, overPastry(scribe.Params{}), 90*time.Second, 41)
	group := overlay.HashString("collect-group")
	for _, a := range c.Addrs[1:] {
		_ = c.Nodes[a].Join(group)
	}
	c.RunFor(30 * time.Second)
	// Find the root: the node that is root for the group.
	var root overlay.Address = overlay.NilAddress
	var collected int
	for _, a := range c.Addrs {
		if p := scribeOf(c, a); p.Parent(group) == overlay.NilAddress && len(p.Children(group)) > 0 {
			root = a
		}
	}
	if root == overlay.NilAddress {
		t.Fatal("no root found")
	}
	c.Nodes[root].RegisterHandlers(core.Handlers{
		Deliver: func(p []byte, typ int32, src overlay.Address) {
			if typ == 9 {
				collected++
			}
		},
	})
	for _, a := range c.Addrs[5:8] {
		if a == root {
			continue
		}
		_ = c.Nodes[a].Collect(group, []byte("up"), 9, overlay.PriorityDefault)
	}
	c.RunFor(15 * time.Second)
	if collected < 2 {
		t.Fatalf("root collected %d payloads", collected)
	}
}

func TestLeavePrunesTree(t *testing.T) {
	c := build(t, 10, overPastry(scribe.Params{RefreshPeriod: 5 * time.Second}), 60*time.Second, 43)
	group := overlay.HashString("leave-group")
	for _, a := range c.Addrs[1:] {
		_ = c.Nodes[a].Join(group)
	}
	c.RunFor(30 * time.Second)
	for _, a := range c.Addrs[1:] {
		_ = c.Nodes[a].Leave(group)
	}
	c.RunFor(60 * time.Second) // refreshes expire children
	for _, a := range c.Addrs {
		p := scribeOf(c, a)
		if n := len(p.Children(group)); n != 0 {
			t.Errorf("node %v still has %d children after everyone left", a, n)
		}
	}
}

func TestPushdownBoundsChildren(t *testing.T) {
	const maxKids = 2
	c := build(t, 14, overPastry(scribe.Params{MaxChildren: maxKids}), 90*time.Second, 47)
	group := overlay.HashString("bounded-group")
	for _, a := range c.Addrs {
		_ = c.Nodes[a].Join(group)
	}
	c.RunFor(60 * time.Second)
	reached := 0
	for _, a := range c.Addrs {
		p := scribeOf(c, a)
		if kids := len(p.Children(group)); kids > maxKids {
			t.Errorf("node %v has %d children, bound %d", a, kids, maxKids)
		}
		if p.Member(group) && (p.Parent(group) != overlay.NilAddress || len(p.Children(group)) > 0) {
			reached++
		}
	}
	if reached < 10 {
		t.Fatalf("only %d members attached to the bounded tree", reached)
	}
}
