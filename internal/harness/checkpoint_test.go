package harness

import (
	"runtime"
	"testing"
	"time"

	"macedon/internal/core"
)

// TestCheckpointAllocsPerNode holds the fork path to its allocation budget on
// the cluster macebench's statecopy probe checkpoints: 100 generated-Chord
// nodes on 300 routers, settled for 60 s, seed 2004. The reflective walker
// the capture replaced cost 1066.6 allocations per node for Checkpoint and
// 324.6 per node for Restore plus 100 ms of run (which then rebuilt every
// endpoint route). A capture that allocated once per struct, pointer, map or
// slice it kept cost 58.4 while every node held a PRNG it never drew from,
// two name-to-transport maps and two failure-detector maps; 45.4 and 16,916
// bytes since, with 19.3 for Restore plus 100 ms. Copying into one arena per
// type and cutting every restored slice from one array per type: 3.5
// allocations and 13.5 to 14.1 KB, and 4.0. The bytes before stay the
// ceiling.
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cp = c.Checkpoint()
	runtime.ReadMemStats(&after)
	captureBytes := float64(after.TotalAlloc-before.TotalAlloc) / nodes
	restore := testing.AllocsPerRun(5, func() {
		c.RunFor(100 * time.Millisecond)
		c.Restore(cp)
	}) / nodes
	t.Logf("per node: Checkpoint %.1f allocations and %.0f bytes, Restore plus 100 ms of run %.1f allocations",
		capture, captureBytes, restore)
	if capture > 6 {
		t.Errorf("Checkpoint allocates %.1f times per node, budget 6", capture)
	}
	if captureBytes > 16916 {
		t.Errorf("Checkpoint allocates %.0f bytes per node, budget 16,916", captureBytes)
	}
	if restore > 8 {
		t.Errorf("Restore plus 100 ms of run allocates %.1f times per node, budget 8", restore)
	}
}

// TestSpawnAllocsPerNode holds node construction to its allocation budget:
// 200 generated-Chord nodes spawned on 600 routers, seed 2004, counting
// everything from NewNode through each node's init transition. A generated
// protocol's Def is built once per process and shared, so a node pays only
// for its own state: 160.8 allocations per node when every node built its
// own Def, the one build of the shared Def included. A node builds its PRNG
// on the first draw, which generated Chord never makes, keeps one transport
// table and one failure-detector map, and holds no tracer when tracing is
// off: 53.8 allocations and 14.5 KB per node before, 44.8 and 8.3 KB since.
func TestSpawnAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const nodes = 200
	stack, err := ScenarioStack("genchord")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{Nodes: nodes, Routers: 3 * nodes, Seed: 2004, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / nodes
	size := float64(after.TotalAlloc-before.TotalAlloc) / nodes
	t.Logf("spawn: %.1f allocations, %.0f bytes per node", per, size)
	if per > 48 {
		t.Errorf("spawning a node allocates %.1f times, budget 48", per)
	}
	if size > 9500 {
		t.Errorf("spawning a node allocates %.0f bytes, budget 9500", size)
	}
}
