package topology

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// cliqueGraph builds groups of size `size` with cheap intra-group pipes and
// an expensive ring joining the groups: the shape latency partitioning is
// meant to exploit.
func cliqueGraph(groups, size int, intra, inter time.Duration) *Graph {
	g := NewGraph()
	for i := 0; i < groups*size; i++ {
		g.AddRouter()
	}
	for grp := 0; grp < groups; grp++ {
		base := RouterID(grp * size)
		for a := 0; a < size; a++ {
			for b := a + 1; b < size; b++ {
				g.AddLink(base+RouterID(a), base+RouterID(b), intra, 1e8, 1<<16)
			}
		}
	}
	for grp := 0; grp < groups; grp++ {
		a := RouterID(grp * size)
		b := RouterID(((grp + 1) % groups) * size)
		g.AddLink(a, b, inter, 1e8, 1<<16)
	}
	return g
}

// TestPartitionLatencyDeterministic: the assignment is a pure function of
// the graph and the shard count — two builds of the same topology shard
// identically, which is what lets a latency-partitioned run reproduce the
// golden corpus.
func TestPartitionLatencyDeterministic(t *testing.T) {
	build := func() *Graph {
		g, err := INET(DefaultINET(120, 9))
		if err != nil {
			t.Fatal(err)
		}
		AttachClients(g, 30, 1, DefaultAccess, 10)
		return g
	}
	for _, shards := range []int{2, 4, 16} {
		a := PartitionLatency(build(), shards)
		b := PartitionLatency(build(), shards)
		if len(a) != len(b) {
			t.Fatalf("shards=%d: assignment lengths differ", shards)
		}
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("shards=%d: vertex %d assigned to %d then %d", shards, v, a[v], b[v])
			}
			if a[v] < 0 || int(a[v]) >= shards {
				t.Fatalf("shards=%d: vertex %d assigned out of range: %d", shards, v, a[v])
			}
		}
	}
}

// TestPartitionLatencyWidensLookahead: on a clustered topology the latency
// partitioner keeps each cheap clique on one shard, so only the expensive
// inter-group links cross shards and the conservative lookahead jumps from
// the graph's minimum link latency to the inter-group latency.
func TestPartitionLatencyWidensLookahead(t *testing.T) {
	const intra, inter = time.Millisecond, 50 * time.Millisecond
	g := cliqueGraph(4, 4, intra, inter)

	floor := g.Links()[0].Latency
	for _, l := range g.Links() {
		floor = min(floor, l.Latency)
	}
	if floor != intra {
		t.Fatalf("minimum link latency %v, want %v", floor, intra)
	}

	lat := PartitionLatency(g, 4)
	for grp := 0; grp < 4; grp++ {
		for m := 1; m < 4; m++ {
			if lat[grp*4+m] != lat[grp*4] {
				t.Fatalf("group %d split across shards: %v", grp, lat)
			}
		}
	}
	lw, ok := MinCrossShardLatency(g, func(v RouterID) int { return int(lat[v]) })
	if !ok || lw != inter {
		t.Fatalf("latency lookahead: got %v ok=%v, want %v, not the %v floor (only ring links cross)", lw, ok, inter, floor)
	}
}

// TestPartitionLatencyBalance: the capacity bound keeps the assignment
// usable as a parallel work partition — no shard holds more than twice the
// ideal share even on an irregular graph.
func TestPartitionLatencyBalance(t *testing.T) {
	g, err := INET(DefaultINET(200, 3))
	if err != nil {
		t.Fatal(err)
	}
	AttachClients(g, 60, 1, DefaultAccess, 4)
	n := g.NumRouters()
	for _, shards := range []int{2, 4, 8} {
		assign := PartitionLatency(g, shards)
		load := make([]int, shards)
		for _, s := range assign {
			load[s]++
		}
		capacity := (n + shards - 1) / shards
		for s, l := range load {
			if l > 2*capacity {
				t.Fatalf("shards=%d: shard %d holds %d vertices (capacity %d)", shards, s, l, capacity)
			}
		}
	}
}

// TestPartitionLatencyPinned pins PartitionLatency's assignments, as FNV-64a
// digests of the shard vector, on INET graphs of three sizes and three seeds
// at two to four shards. A faster construction must shard identically.
func TestPartitionLatencyPinned(t *testing.T) {
	pins := []struct {
		routers int
		seed    int64
		shards  int
		digest  string
	}{
		{100, 1, 2, "db33083a1cc3f7b5"},
		{100, 1, 3, "067f433026b16555"},
		{100, 1, 4, "4f01bdff91181025"},
		{100, 2, 2, "de3c32618d735eb5"},
		{100, 2, 3, "7b641de5cf952925"},
		{100, 2, 4, "d9fc61cbe02a15e5"},
		{100, 2004, 2, "1a019ab309f63875"},
		{100, 2004, 3, "4472d19ca5fc6c85"},
		{100, 2004, 4, "d35450cc0e066665"},
		{600, 1, 2, "37451d7b027cf755"},
		{600, 1, 3, "ab170e43245c9775"},
		{600, 1, 4, "571eff790ff389f5"},
		{600, 2, 2, "4e9cceb4cb705835"},
		{600, 2, 3, "fec57d2c300514f5"},
		{600, 2, 4, "e431b36b07967865"},
		{600, 2004, 2, "e3e98761eec91105"},
		{600, 2004, 3, "3b1dae392b20e795"},
		{600, 2004, 4, "7952f5dbf69ebde5"},
		{3000, 1, 2, "7ff08e203aa27855"},
		{3000, 1, 3, "df696a46537eca75"},
		{3000, 1, 4, "25cc830284f39205"},
		{3000, 2, 2, "bed3a5c8321d58f5"},
		{3000, 2, 3, "c19e8dcd8fadf885"},
		{3000, 2, 4, "df955fd6a3107c35"},
		{3000, 2004, 2, "ee48fddf0335cb75"},
		{3000, 2004, 3, "6abd43f158fc13f5"},
		{3000, 2004, 4, "f454a02f9848b8b5"},
	}
	graphs := map[[2]int64]*Graph{}
	for _, p := range pins {
		g := graphs[[2]int64{int64(p.routers), p.seed}]
		if g == nil {
			var err error
			if g, err = INET(DefaultINET(p.routers, p.seed)); err != nil {
				t.Fatal(err)
			}
			graphs[[2]int64{int64(p.routers), p.seed}] = g
		}
		h := fnv.New64a()
		for _, s := range PartitionLatency(g, p.shards) {
			h.Write([]byte{byte(s), byte(s >> 8), byte(s >> 16), byte(s >> 24)})
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != p.digest {
			t.Errorf("INET(%d, seed %d) at %d shards: assignment digest %s, pinned %s", p.routers, p.seed, p.shards, got, p.digest)
		}
	}
}

// BenchmarkPartitionLatency measures the latency partitioner on the
// 600-router INET graph at two shards.
func BenchmarkPartitionLatency(b *testing.B) {
	g, err := INET(DefaultINET(600, 2004))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		PartitionLatency(g, 2)
	}
}

// TestSortedPipesOrder: pipes come out in ascending (latency, id) order
// whether their keys pack into one word or not, and a latency past the
// packing's range takes the comparison path without reordering ties.
func TestSortedPipesOrder(t *testing.T) {
	for _, huge := range []time.Duration{0, time.Duration(1) << 50} {
		g := cliqueGraph(3, 4, 2*time.Millisecond, 7*time.Millisecond)
		if huge > 0 {
			g.AddLink(0, 5, huge, 1e8, 1<<16)
		}
		links := g.Links()
		pipes := sortedPipes(links)
		if len(pipes) != len(links)/2 {
			t.Fatalf("%d pipes for %d links", len(pipes), len(links))
		}
		for i := 1; i < len(pipes); i++ {
			a, b := links[pipes[i-1]], links[pipes[i]]
			if a.Latency > b.Latency || a.Latency == b.Latency && pipes[i-1] >= pipes[i] {
				t.Fatalf("huge=%v: pipe %d (%v) before pipe %d (%v)", huge, pipes[i-1], a.Latency, pipes[i], b.Latency)
			}
		}
	}
}
