package check_test

import (
	"slices"
	"testing"
	"time"

	"macedon/internal/check"
	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/metrics"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genchord"
)

// TestExtractGeneratedChordRing: on a settled generated Chord ring, Extract
// reports each node's successor list and predecessor, so the ring checker's
// predecessor rule has a subject, and the predecessor is an audited reference.
func TestExtractGeneratedChordRing(t *testing.T) {
	const n = 8
	c, err := harness.NewCluster(harness.ClusterConfig{Nodes: n, Routers: 60, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopAll)
	stack := []core.Factory{genchord.New()}
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * time.Second)

	oracle := metrics.NewChordOracle(c.Addrs)
	predOf := make(map[overlay.Address]overlay.Address, n)
	for _, a := range c.Addrs {
		predOf[oracle.Successor(overlay.HashAddress(a)+1)] = a
	}
	for i, a := range c.Addrs {
		st := check.Extract(c.Nodes[a], i)
		if st.Kind != check.KindRing || !st.Joined {
			t.Fatalf("node %d: kind %v joined %v, want a joined ring node", i, st.Kind, st.Joined)
		}
		if want := oracle.Successor(overlay.HashAddress(a) + 1); len(st.Succs) == 0 || st.Succs[0] != want {
			t.Errorf("node %d: successors %v, oracle successor %v", i, st.Succs, want)
		}
		if want := predOf[a]; st.Pred != want {
			t.Errorf("node %d: predecessor %v, oracle %v", i, st.Pred, want)
		}
		if !slices.Contains(st.Refs, st.Pred) {
			t.Errorf("node %d: predecessor %v missing from the audited references %v", i, st.Pred, st.Refs)
		}
	}
}
