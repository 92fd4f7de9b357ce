package harness

import (
	"testing"
	"time"

	"macedon/internal/core"
)

// TestCheckpointAllocsPerNode holds the fork path to its allocation budget on
// the cluster macebench's statecopy probe checkpoints: 100 generated-Chord
// nodes on 300 routers, settled for 60 s, seed 2004. A capture costs about
// one allocation per struct, pointer, map or slice it keeps; the reflective
// walker it replaced cost 1066.6 per node for Checkpoint and 324.6 per node
// for Restore plus 100 ms of run (which then rebuilt every endpoint route).
func TestCheckpointAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const nodes = 100
	stack, err := ScenarioStack("genchord")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		Nodes: nodes, Routers: 3 * nodes, Seed: 2004, Shards: 1,
		HeartbeatAfter: 2 * time.Second, FailAfter: 6 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(60 * time.Second)

	var cp *Checkpoint
	capture := testing.AllocsPerRun(5, func() { cp = c.Checkpoint() }) / nodes
	restore := testing.AllocsPerRun(5, func() {
		c.RunFor(100 * time.Millisecond)
		c.Restore(cp)
	}) / nodes
	t.Logf("per node: Checkpoint %.1f allocations, Restore plus 100 ms of run %.1f", capture, restore)
	if capture > 175 {
		t.Errorf("Checkpoint allocates %.1f times per node, budget 175", capture)
	}
	if restore > 40 {
		t.Errorf("Restore plus 100 ms of run allocates %.1f times per node, budget 40", restore)
	}
}
