package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"macedon/internal/overlay"
)

func line3() (*Graph, []RouterID) {
	// 0 --1ms-- 1 --2ms-- 2
	g := NewGraph()
	a, b, c := g.AddRouter(), g.AddRouter(), g.AddRouter()
	g.AddLink(a, b, time.Millisecond, 1e6, 1500)
	g.AddLink(b, c, 2*time.Millisecond, 1e6, 1500)
	return g, []RouterID{a, b, c}
}

func TestGraphBasics(t *testing.T) {
	g, v := line3()
	if g.NumRouters() != 3 || g.NumLinks() != 4 {
		t.Fatalf("routers=%d links=%d", g.NumRouters(), g.NumLinks())
	}
	if g.Degree(v[1]) != 2 {
		t.Fatalf("degree of middle = %d", g.Degree(v[1]))
	}
	if !g.IsConnected() {
		t.Fatal("line should be connected")
	}
	g.AddRouter() // isolated
	if g.IsConnected() {
		t.Fatal("isolated vertex should disconnect")
	}
}

// TestIsConnectedComponents: the union-find over the link array counts
// components the way a walk from vertex 0 would: three islands are not
// connected until two bridges join them, and a graph whose halves meet at a
// single bridge is.
func TestIsConnectedComponents(t *testing.T) {
	g := NewGraph()
	v := make([]RouterID, 7)
	for i := range v {
		v[i] = g.AddRouter()
	}
	link := func(a, b int) { g.AddLink(v[a], v[b], time.Millisecond, 1e6, 1500) }
	// Islands {0,1,2}, {3,4} and {5,6}.
	link(0, 1)
	link(1, 2)
	link(2, 0)
	link(3, 4)
	link(6, 5)
	if g.IsConnected() {
		t.Fatal("three components reported connected")
	}
	link(4, 5)
	if g.IsConnected() {
		t.Fatal("two components reported connected")
	}
	link(2, 3)
	if !g.IsConnected() {
		t.Fatal("components joined by bridges reported disconnected")
	}

	// Two triangles whose only link between them is one bridge.
	b := NewGraph()
	for i := 0; i < 6; i++ {
		b.AddRouter()
	}
	for _, e := range [][2]RouterID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		b.AddLink(e[0], e[1], time.Millisecond, 1e6, 1500)
	}
	if b.IsConnected() {
		t.Fatal("two triangles without their bridge reported connected")
	}
	b.AddLink(5, 0, time.Millisecond, 1e6, 1500)
	if !b.IsConnected() {
		t.Fatal("two triangles joined by a single bridge reported disconnected")
	}
	if !NewGraph().IsConnected() {
		t.Fatal("the empty graph reported disconnected")
	}
}

// TestAppendPathExtendsBuffer: AppendPath appends the links Path returns to
// whatever the buffer holds, in place when it has the room, and appends
// nothing for an unreachable or self destination.
func TestAppendPathExtendsBuffer(t *testing.T) {
	g, v := line3()
	g.AttachClient(100, v[0], DefaultAccess)
	g.AttachClient(101, v[2], DefaultAccess)
	isolated := g.AddRouter()
	c0, _ := g.ClientVertex(100)
	c1, _ := g.ClientVertex(101)
	r := NewRoutes(g)
	want := r.Path(c0, c1)
	if len(want) != 4 {
		t.Fatalf("client path = %v, want 4 hops", want)
	}
	buf := make([]LinkID, 1, 16)
	buf[0] = 42
	got := r.AppendPath(buf, c0, c1)
	if &got[0] != &buf[0] || got[0] != 42 || !slices.Equal(got[1:], want) {
		t.Fatalf("AppendPath = %v, want [42 %v] in the caller's array", got, want)
	}
	if got := r.AppendPath(buf, c0, isolated); len(got) != 1 {
		t.Fatalf("unreachable destination appended %v", got[1:])
	}
	if got := r.AppendPath(buf, c1, c1); len(got) != 1 {
		t.Fatalf("self destination appended %v", got[1:])
	}
}

// TestGraphBuildAllocs: building a graph appends to a few flat arrays and
// the client maps, and the core view is a counting sort over the links, so
// INET(600) with 200 clients and its core view cost a bounded number of
// allocations, not a few per vertex (146 measured; 2,276 while every vertex
// grew its own adjacency list).
func TestGraphBuildAllocs(t *testing.T) {
	got := testing.AllocsPerRun(3, func() {
		g, err := INET(DefaultINET(600, 11))
		if err != nil {
			t.Fatal(err)
		}
		AttachClients(g, 200, 1, DefaultAccess, 12)
		g.coreView()
	})
	t.Logf("INET(600) + 200 clients + core view: %v allocations", got)
	if got > 200 {
		t.Fatalf("building the graph costs %v allocations, want at most 200", got)
	}
}

func TestRoutesPathAndLatency(t *testing.T) {
	g, v := line3()
	r := NewRoutes(g)
	if d := r.Latency(v[0], v[2]); d != 3*time.Millisecond {
		t.Fatalf("latency = %v", d)
	}
	path := r.Path(v[0], v[2])
	if len(path) != 2 {
		t.Fatalf("path = %v", path)
	}
	if g.Link(path[0]).From != v[0] || g.Link(path[1]).To != v[2] {
		t.Fatalf("path endpoints wrong: %+v %+v", g.Link(path[0]), g.Link(path[1]))
	}
	if r.Path(v[0], v[0]) != nil {
		t.Fatal("self path should be nil")
	}
	if d := r.Latency(v[0], v[0]); d != 0 {
		t.Fatalf("self latency = %v", d)
	}
}

func TestRoutesPicksShorterPath(t *testing.T) {
	// triangle with a slow direct edge and a fast two-hop detour
	g := NewGraph()
	a, b, c := g.AddRouter(), g.AddRouter(), g.AddRouter()
	g.AddLink(a, c, 10*time.Millisecond, 1e6, 1500)
	g.AddLink(a, b, 2*time.Millisecond, 1e6, 1500)
	g.AddLink(b, c, 2*time.Millisecond, 1e6, 1500)
	r := NewRoutes(g)
	if d := r.Latency(a, c); d != 4*time.Millisecond {
		t.Fatalf("latency = %v, want 4ms via detour", d)
	}
	if p := r.Path(a, c); len(p) != 2 {
		t.Fatalf("path = %v, want 2 hops", p)
	}
}

func TestRoutesUnreachable(t *testing.T) {
	g := NewGraph()
	a := g.AddRouter()
	b := g.AddRouter()
	r := NewRoutes(g)
	if p := r.Path(a, b); p != nil {
		t.Fatalf("path across partition = %v", p)
	}
	if d := r.Latency(a, b); d >= 0 {
		t.Fatalf("latency across partition = %v", d)
	}
}

func TestClients(t *testing.T) {
	g, v := line3()
	g.AttachClient(100, v[0], DefaultAccess)
	g.AttachClient(101, v[2], DefaultAccess)
	r := NewRoutes(g)
	d, err := r.ClientLatency(100, 101)
	if err != nil {
		t.Fatal(err)
	}
	// 1ms access + 3ms across + 1ms access
	if d != 5*time.Millisecond {
		t.Fatalf("client latency = %v", d)
	}
	if _, err := r.ClientLatency(100, 999); err == nil {
		t.Fatal("unattached client should error")
	}
	cs := g.Clients()
	if len(cs) != 2 || cs[0] != 100 {
		t.Fatalf("Clients = %v", cs)
	}
	cv, ok := g.ClientVertex(101)
	if !ok {
		t.Fatal("lost client vertex")
	}
	if a, ok := g.ClientAt(cv); !ok || a != 101 {
		t.Fatalf("ClientAt = %v,%v", a, ok)
	}
}

func TestAttachClientPanics(t *testing.T) {
	g, v := line3()
	g.AttachClient(100, v[0], DefaultAccess)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach should panic")
		}
	}()
	g.AttachClient(100, v[1], DefaultAccess)
}

func TestINETGeneration(t *testing.T) {
	p := DefaultINET(200, 42)
	g, err := INET(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRouters() != 200 {
		t.Fatalf("routers = %d", g.NumRouters())
	}
	if !g.IsConnected() {
		t.Fatal("INET graph must be connected")
	}
	// Power-law-ish: max degree should dwarf the median.
	maxDeg, sum := 0, 0
	for i := 0; i < g.NumRouters(); i++ {
		d := g.Degree(RouterID(i))
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sum) / float64(g.NumRouters())
	if float64(maxDeg) < 3*mean {
		t.Fatalf("no hubs: max degree %d vs mean %.1f", maxDeg, mean)
	}
}

func TestINETDeterminism(t *testing.T) {
	a, err := INET(DefaultINET(100, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := INET(DefaultINET(100, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLinks() != b.NumLinks() {
		t.Fatalf("same seed, different link counts: %d vs %d", a.NumLinks(), b.NumLinks())
	}
	for i := range a.Links() {
		la, lb := a.Links()[i], b.Links()[i]
		if la != lb {
			t.Fatalf("link %d differs: %+v vs %+v", i, la, lb)
		}
	}
}

func TestINETTooSmall(t *testing.T) {
	if _, err := INET(DefaultINET(2, 1)); err == nil {
		t.Fatal("tiny INET should be rejected")
	}
}

func TestStubRoutersExcludeClients(t *testing.T) {
	g, err := INET(DefaultINET(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	addrs := AttachClients(g, 10, 1000, DefaultAccess, 3)
	if len(addrs) != 10 {
		t.Fatalf("attached %d", len(addrs))
	}
	for _, s := range StubRouters(g) {
		if _, isClient := g.ClientAt(s); isClient {
			t.Fatal("client vertex returned as stub router")
		}
	}
}

func TestSiteMatrix(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	p := SiteMatrixParams{
		Latency: [][]time.Duration{
			{0, ms(10), ms(20)},
			{ms(10), 0, ms(15)},
			{ms(20), ms(15), 0},
		},
	}
	g, gws, err := SiteMatrix(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(gws) != 3 {
		t.Fatalf("gateways = %d", len(gws))
	}
	addrs, sites := AttachSiteClients(g, gws, 2, 1, p)
	if len(addrs) != 6 || sites[0] != 0 || sites[5] != 2 {
		t.Fatalf("addrs=%v sites=%v", addrs, sites)
	}
	r := NewRoutes(g)
	d, err := r.ClientLatency(addrs[0], addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	// 1ms LAN + 10ms WAN + 1ms LAN
	if d != 12*time.Millisecond {
		t.Fatalf("cross-site latency = %v", d)
	}
	d, err = r.ClientLatency(addrs[0], addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	if d != 2*time.Millisecond { // same site: two LAN hops
		t.Fatalf("same-site latency = %v", d)
	}
}

// TestNICESites pins the latency rule of the paper's Figures 8–9 testbed:
// 2 + 5·|i − j| ms between sites, capped at 40 ms, over a 1 ms LAN.
func TestNICESites(t *testing.T) {
	p := NICESites(8)
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	for _, c := range []struct {
		i, j int
		want time.Duration
	}{{0, 0, 0}, {0, 1, ms(7)}, {1, 0, ms(7)}, {2, 5, ms(17)}, {0, 7, ms(37)}, {7, 0, ms(37)}} {
		if got := p.Latency[c.i][c.j]; got != c.want {
			t.Errorf("latency %d→%d = %v, want %v", c.i, c.j, got, c.want)
		}
	}
	if got := NICESites(10).Latency[0][9]; got != ms(40) {
		t.Errorf("latency 0→9 of 10 sites = %v, want the 40 ms cap", got)
	}
	g, gws, err := SiteMatrix(p)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := AttachSiteClients(g, gws, 2, 1, p)
	// Site 0 to site 7: a LAN hop, the 37 ms WAN link, a LAN hop.
	if d, err := NewRoutes(g).ClientLatency(addrs[0], addrs[15]); err != nil || d != ms(39) {
		t.Fatalf("site 0 → site 7 = %v (%v), want 39ms", d, err)
	}
}

func TestSiteMatrixErrors(t *testing.T) {
	if _, _, err := SiteMatrix(SiteMatrixParams{}); err == nil {
		t.Fatal("empty matrix should fail")
	}
	if _, _, err := SiteMatrix(SiteMatrixParams{Latency: [][]time.Duration{{0, time.Millisecond}}}); err == nil {
		t.Fatal("non-square matrix should fail")
	}
	// disconnected: zero latency means no link
	p := SiteMatrixParams{Latency: [][]time.Duration{{0, 0}, {0, 0}}}
	if _, _, err := SiteMatrix(p); err == nil {
		t.Fatal("disconnected sites should fail")
	}
}

var _ = overlay.NilAddress // keep the import pinned for doc examples

// TestDegreeThresholdMatchesInsertionSort pins the quantile on a
// 20,000-entry power-law degree slice — the paper's INET size — against the
// quadratic loop slices.Sort replaced.
func TestDegreeThresholdMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20000))
	deg := make([]int, 20000)
	for i := range deg {
		deg[i] = int(1 / math.Pow(1-rng.Float64(), 1/1.2)) // Pareto tail, like INET degrees
	}
	sorted := append([]int(nil), deg...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if got, want := degreeThreshold(deg, q), sorted[int(q*float64(len(sorted)-1))]; got != want {
			t.Fatalf("degreeThreshold(q=%v) = %d, the insertion sort's was %d", q, got, want)
		}
	}
}

// TestLongLivedOracleMatchesFresh: an oracle whose blocked predicate changes
// under it — access links at will, a core link with a Flush — answers every
// client pair exactly as an oracle built fresh for the failure set of the
// moment. A new long-lived oracle joins at every stage, so trees first
// computed with access links down, with a core link down, and after the
// heals are all held to the same answers. The INET graphs are the ones
// experiments run over; the uniform-latency grids make every route a tie, so
// a frontier that let a client stub in — and with it the state of that
// stub's access link — would pick different predecessors.
func TestLongLivedOracleMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		inet, err := INET(DefaultINET(60, seed))
		if err != nil {
			t.Fatal(err)
		}
		grid := NewGraph()
		const side = 6
		for i := 0; i < side*side; i++ {
			grid.AddRouter()
		}
		for v := RouterID(0); v < side*side; v++ {
			if v%side+1 < side {
				grid.AddLink(v, v+1, time.Millisecond, 1e9, 1<<20)
			}
			if v+side < side*side {
				grid.AddLink(v, v+side, time.Millisecond, 1e9, 1<<20)
			}
		}
		for name, g := range map[string]*Graph{"inet": inet, "grid": grid} {
			addrs := AttachClients(g, 12, 1, DefaultAccess, seed+100)
			longLivedMatchesFresh(t, fmt.Sprintf("%s seed %d", name, seed), g, addrs, rand.New(rand.NewSource(seed)))
		}
	}
}

func longLivedMatchesFresh(t *testing.T, name string, g *Graph, addrs []overlay.Address, rng *rand.Rand) {
	var access, core []LinkID
	for _, a := range addrs {
		if rng.Intn(3) == 0 {
			up, _, _ := g.AccessLinks(a)
			access = append(access, up)
		}
	}
	for _, l := range g.Links() {
		if !g.IsAccessLink(l.ID) {
			core = append(core, l.ID)
		}
	}
	coreLink := []LinkID{core[rng.Intn(len(core))]}

	blocked := map[LinkID]bool{}
	set := func(links []LinkID, down bool) {
		for _, l := range links {
			if down {
				blocked[l], blocked[l^1] = true, true
			} else {
				delete(blocked, l)
				delete(blocked, l^1)
			}
		}
	}
	stages := []struct {
		name        string
		links       []LinkID
		down, flush bool
	}{
		{name: "before"},
		{name: "access down", links: access, down: true},
		{name: "access and core down", links: coreLink, down: true, flush: true},
		{name: "core healed", links: coreLink, flush: true},
		{name: "all healed", links: access},
	}
	var lived []*Routes
	for _, st := range stages {
		set(st.links, st.down)
		if st.flush {
			for _, r := range lived {
				r.Flush()
			}
		}
		lived = append(lived, NewRoutesExcluding(g, func(l LinkID) bool { return blocked[l] }))
		exact := make(map[LinkID]bool, len(blocked))
		for l := range blocked {
			exact[l] = true
		}
		fresh := NewRoutesExcluding(g, func(l LinkID) bool { return exact[l] })
		for _, a := range addrs {
			for _, b := range addrs {
				va, _ := g.ClientVertex(a)
				vb, _ := g.ClientVertex(b)
				wantPath, wantLat := fresh.Path(va, vb), fresh.Latency(va, vb)
				for i, r := range lived {
					if got := r.Path(va, vb); !slices.Equal(got, wantPath) {
						t.Fatalf("%s, %s, oracle from stage %d: path %v->%v = %v, a fresh oracle says %v",
							name, st.name, i, a, b, got, wantPath)
					}
					if got := r.Latency(va, vb); got != wantLat {
						t.Fatalf("%s, %s, oracle from stage %d: latency %v->%v = %v, a fresh oracle says %v",
							name, st.name, i, a, b, got, wantLat)
					}
				}
			}
		}
	}
}
