package topology

import (
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
