package topology

import (
	"cmp"
	"slices"
	"time"
)

// MinCrossShardLatency returns the smallest propagation latency of any link
// whose endpoints are owned by different shards under the given assignment.
// This is the conservative lookahead of a sharded discrete-event run over
// the graph: no interaction between two shards can take effect sooner than
// one cross-shard link traversal, so shards may safely run that far ahead
// of each other. ok is false when no link crosses shards.
func MinCrossShardLatency(g *Graph, shardOf func(RouterID) int) (time.Duration, bool) {
	var min time.Duration
	found := false
	for _, l := range g.Links() {
		if shardOf(l.From) == shardOf(l.To) {
			continue
		}
		if !found || l.Latency < min {
			min, found = l.Latency, true
		}
	}
	return min, found
}

// PartitionStriped assigns vertex v to shard v % nshards. Balanced and
// placement-oblivious: with short access links scattered across shards the
// lookahead collapses to the global minimum link latency.
func PartitionStriped(g *Graph, nshards int) []int32 {
	if nshards < 1 {
		nshards = 1
	}
	assign := make([]int32, g.NumRouters())
	for v := range assign {
		assign[v] = int32(v % nshards)
	}
	return assign
}

// PartitionLatency clusters the graph so its lowest-latency links become
// intra-shard, widening the conservative lookahead window (the minimum
// CROSS-shard latency). The construction is a capacity-bounded Kruskal
// sweep: undirected pipes in ascending (latency, id) order merge their
// endpoint clusters whenever the merged cluster still fits the per-shard
// capacity ceil(n/nshards); the resulting components are then bin-packed
// onto shards largest-first, each onto the least-loaded shard.
//
// The assignment is a pure function of the graph and nshards — ties break
// on link id, component size, smallest member, and shard id — so the same
// seed and topology always shard identically. Placement never changes
// results (execution order is keyed independently of shards); it changes
// only how far shards may run ahead of each other between barriers.
func PartitionLatency(g *Graph, nshards int) []int32 {
	n := g.NumRouters()
	assign := make([]int32, n)
	if nshards < 1 {
		nshards = 1
	}
	if nshards == 1 || n == 0 {
		return assign
	}
	capacity := (n + nshards - 1) / nshards

	// Union-find over vertices, merging along cheap pipes first.
	parent := make([]int32, n)
	size := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
		size[v] = 1
	}
	var find func(int32) int32
	find = func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]] // path halving
			v = parent[v]
		}
		return v
	}
	links := g.Links()
	for _, id := range sortedPipes(links) {
		l := links[id]
		ra, rb := find(int32(l.From)), find(int32(l.To))
		if ra == rb || size[ra]+size[rb] > int32(capacity) {
			continue
		}
		if size[ra] < size[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		size[ra] += size[rb]
	}

	// Bin-pack components onto shards: largest first (ties break on the
	// smallest member vertex), each onto the currently least-loaded shard
	// (ties on the lowest shard id). An ascending vertex scan meets each
	// component first at its smallest member, so a stable sort on size alone
	// breaks ties as required. parent[v] becomes v's root on the way.
	var roots []int32
	listed := make([]bool, n)
	for v := range parent {
		r := find(int32(v))
		parent[v] = r
		if !listed[r] {
			listed[r] = true
			roots = append(roots, r)
		}
	}
	slices.SortStableFunc(roots, func(a, b int32) int { return cmp.Compare(size[b], size[a]) })
	load := make([]int32, nshards)
	for _, r := range roots {
		best := 0
		for s := 1; s < nshards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		assign[r] = int32(best)
		load[best] += size[r]
	}
	for v, r := range parent {
		assign[v] = assign[r]
	}
	return assign
}

// pipeIDBits is how many low bits of a sortedPipes key hold the link id;
// the latency fills the rest.
const (
	pipeIDBits = 24
	pipeIDMask = 1<<pipeIDBits - 1
)

// sortedPipes returns the graph's undirected pipes, each as the id of its
// forward link, in ascending (latency, id) order. Links are created in
// fwd/rev pairs (rev = fwd^1), so even ids enumerate each pipe exactly once.
// The sort runs on plain words, latency above pipeIDBits and id below, which
// is what makes the sweep cheap; a graph whose ids or latencies do not fit
// that packing sorts with an explicit comparison instead.
func sortedPipes(links []Link) []LinkID {
	pipes := make([]LinkID, 0, len(links)/2)
	for id := 0; id < len(links); id += 2 {
		pipes = append(pipes, LinkID(id))
	}
	keys := make([]uint64, 0, len(pipes))
	for _, id := range pipes {
		lat := links[id].Latency
		if lat < 0 || uint64(lat) >= 1<<(64-pipeIDBits) || int(id) > pipeIDMask {
			slices.SortFunc(pipes, func(a, b LinkID) int {
				if c := cmp.Compare(links[a].Latency, links[b].Latency); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			return pipes
		}
		keys = append(keys, uint64(lat)<<pipeIDBits|uint64(id))
	}
	slices.Sort(keys)
	for i, k := range keys {
		pipes[i] = LinkID(k & pipeIDMask)
	}
	return pipes
}
