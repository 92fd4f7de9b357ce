// Package scribe_test holds Scribe's behaviour tests. Scribe exists only as
// the code `macedon gen` emits from specs/scribe.mac, in
// internal/overlays/genscribe; these tests run that agent over generated
// Pastry and generated Chord.
package scribe_test

import (
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genchord"
	"macedon/internal/overlays/genpastry"
	"macedon/internal/overlays/genscribe"
)

// params are the per-run values a scenario sets through SetParam.
type params struct{ refreshMs, maxChildren int32 }

func scribeWith(p params) core.Factory {
	return func() core.Agent { return &genscribe.Agent{RefreshMs: p.refreshMs, MaxChildren: p.maxChildren} }
}

// overPastry and overChord are the paper's one-line DHT switch.
func overPastry(p params) []core.Factory {
	return []core.Factory{genpastry.New(), scribeWith(p)}
}

func overChord(p params) []core.Factory {
	return []core.Factory{genchord.New(), scribeWith(p)}
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

// groupOf returns node a's record of a group.
func groupOf(c *harness.Cluster, a overlay.Address, g overlay.Key) genscribe.GroupsEntry {
	return core.KeyRead(c.Nodes[a].Instance("scribe").Agent().(*genscribe.Agent).Groups, g)
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
	testMulticastReachesAllMembers(t, overPastry(params{}))
}

// TestMulticastOverChord is the paper's headline interoperability claim:
// switching Scribe's DHT is a one-line change.
func TestMulticastOverChord(t *testing.T) {
	testMulticastReachesAllMembers(t, overChord(params{}))
}

func TestAnycastReachesExactlyOneMember(t *testing.T) {
	c := build(t, 12, overPastry(params{}), 90*time.Second, 37)
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
	c := build(t, 10, overPastry(params{}), 90*time.Second, 41)
	group := overlay.HashString("collect-group")
	for _, a := range c.Addrs[1:] {
		_ = c.Nodes[a].Join(group)
	}
	c.RunFor(30 * time.Second)
	// Find the root: the node that is root for the group.
	var root overlay.Address = overlay.NilAddress
	var collected int
	for _, a := range c.Addrs {
		if p := groupOf(c, a, group); p.Parent == overlay.NilAddress && len(p.Children.Addrs) > 0 {
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
	c := build(t, 10, overPastry(params{refreshMs: 5000}), 60*time.Second, 43)
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
		p := groupOf(c, a, group)
		if n := len(p.Children.Addrs); n != 0 {
			t.Errorf("node %v still has %d children after everyone left", a, n)
		}
	}
}

func TestPushdownBoundsChildren(t *testing.T) {
	const maxKids = 2
	c := build(t, 14, overPastry(params{maxChildren: maxKids}), 90*time.Second, 47)
	group := overlay.HashString("bounded-group")
	for _, a := range c.Addrs {
		_ = c.Nodes[a].Join(group)
	}
	c.RunFor(60 * time.Second)
	reached := 0
	for _, a := range c.Addrs {
		p := groupOf(c, a, group)
		if kids := len(p.Children.Addrs); kids > maxKids {
			t.Errorf("node %v has %d children, bound %d", a, kids, maxKids)
		}
		if p.Member && (p.Parent != overlay.NilAddress || len(p.Children.Addrs) > 0) {
			reached++
		}
	}
	if reached < 10 {
		t.Fatalf("only %d members attached to the bounded tree", reached)
	}
}
