package nice_test

import (
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/gennice"
	"macedon/internal/topology"
)

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

func niceOf(c *harness.Cluster, a overlay.Address) *gennice.Agent {
	return c.Nodes[a].Instance("nice").Agent().(*gennice.Agent)
}

// topLayer is the highest layer a node belongs to.
func topLayer(p *gennice.Agent) int { return int(p.Layers.Len()) - 1 }

func TestAllJoin(t *testing.T) {
	c := build(t, 20, []core.Factory{gennice.New()}, 3*time.Minute, 91)
	for _, a := range c.Addrs {
		if st := c.Nodes[a].Instance("nice").State(); st != "joined" {
			t.Fatalf("node %v state %q", a, st)
		}
		if len(niceOf(c, a).Layers.Members(0)) < 2 {
			t.Errorf("node %v has a singleton L0 cluster", a)
		}
	}
}

func TestClusterSizeInvariant(t *testing.T) {
	const k = 3
	c := build(t, 30, []core.Factory{gennice.New()}, 5*time.Minute, 93)
	over := 0
	for _, a := range c.Addrs {
		p := niceOf(c, a)
		if p.Layers.Leader(0) == a {
			if size := len(p.Layers.Members(0)); size > 3*k-1 {
				over++
				t.Logf("leader %v cluster size %d exceeds %d", a, size, 3*k-1)
			}
		}
	}
	if over > 1 {
		t.Fatalf("%d clusters above the 3k-1 bound after settling", over)
	}
}

func TestHierarchyForms(t *testing.T) {
	c := build(t, 30, []core.Factory{gennice.New()}, 5*time.Minute, 95)
	// With 30 nodes and k=3 there must be at least two layers somewhere.
	maxTop := 0
	for _, a := range c.Addrs {
		if tl := topLayer(niceOf(c, a)); tl > maxTop {
			maxTop = tl
		}
	}
	if maxTop < 1 {
		t.Fatalf("no hierarchy formed: max top layer = %d", maxTop)
	}
}

func TestMulticastReachesAll(t *testing.T) {
	const n = 24
	c := build(t, n, []core.Factory{gennice.New()}, 8*time.Minute, 97)
	got := map[overlay.Address]int{}
	for _, a := range c.Addrs[1:] {
		addr := a
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, src overlay.Address) { got[addr]++ },
		})
	}
	const packets = 5
	for i := 0; i < packets; i++ {
		_ = c.Nodes[c.Addrs[0]].Multicast(0, make([]byte, 500), 1, overlay.PriorityDefault)
		c.RunFor(2 * time.Second)
	}
	c.RunFor(30 * time.Second)
	// NICE has no retransmission layer: a packet in flight during a
	// cluster reconfiguration can be lost (as in the published system), so
	// require all-but-one delivery per member rather than perfection.
	missing := 0
	for _, a := range c.Addrs[1:] {
		if got[a] < packets-1 {
			missing++
			t.Logf("node %v received %d/%d", a, got[a], packets)
		}
	}
	if missing > 0 {
		t.Fatalf("%d/%d members missed more than one packet", missing, n-1)
	}
}

// TestLatencyAwareClustering puts members at two distant sites: L0 clusters
// must not straddle the WAN link.
func TestLatencyAwareClustering(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	p := topology.SiteMatrixParams{
		Latency: [][]time.Duration{
			{0, ms(80)},
			{ms(80), 0},
		},
		LANLatency: ms(1),
	}
	g, gws, err := topology.SiteMatrix(p)
	if err != nil {
		t.Fatal(err)
	}
	addrs, sites := topology.AttachSiteClients(g, gws, 6, 1, p)
	c, err := harness.NewCluster(harness.ClusterConfig{Graph: g, Addrs: addrs, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	stack := []core.Factory{gennice.New()}
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Minute)
	siteOf := map[overlay.Address]int{}
	for i, a := range addrs {
		siteOf[a] = sites[i]
	}
	straddling := 0
	for _, a := range addrs {
		p := niceOf(c, a)
		for _, m := range p.Layers.Members(0) {
			if siteOf[m] != siteOf[a] {
				straddling++
			}
		}
	}
	// A few transients are tolerable; systematic straddling is not.
	if straddling > 4 {
		t.Fatalf("%d cross-site L0 cluster memberships; clustering ignores latency", straddling)
	}
}

// TestJoinDescendsFromTopAfterRPDemotion: once the rendezvous point has lost
// a leadership, its own top cluster is no longer the top of the hierarchy,
// and a joiner must still start its descent there. The RP sits alone at a
// site close to site 1, so the center of its bottom cluster is a site-1
// node and the RP is demoted; a node joining at the distant site 2 must end
// up in a site-2 cluster, not in the RP's site-1 cluster.
func TestJoinDescendsFromTopAfterRPDemotion(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	p := topology.SiteMatrixParams{
		Latency: [][]time.Duration{
			{0, ms(10), ms(60)},
			{ms(10), 0, ms(60)},
			{ms(60), ms(60), 0},
		},
		LANLatency: ms(1),
	}
	g, gws, err := topology.SiteMatrix(p)
	if err != nil {
		t.Fatal(err)
	}
	rp, _ := topology.AttachSiteClients(g, gws[:1], 1, 1, p)
	rest, sites := topology.AttachSiteClients(g, gws[1:], 8, 2, p)
	addrs := append(rp, rest...)
	siteOf := map[overlay.Address]int{rp[0]: 0}
	for i, a := range rest {
		siteOf[a] = sites[i] + 1
	}
	c, err := harness.NewCluster(harness.ClusterConfig{Graph: g, Addrs: addrs, Seed: 103})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopAll)
	stack := []core.Factory{gennice.New()}
	joiner := len(addrs) - 1 // the last site-2 node joins late
	for i := 0; i < joiner; i++ {
		if _, err := c.Spawn(i, stack); err != nil {
			t.Fatal(err)
		}
	}
	c.RunFor(5 * time.Minute)

	r := niceOf(c, rp[0])
	if top := topLayer(r); top < 0 || r.Layers.Leader(int32(top)) == rp[0] {
		t.Fatalf("RP top layer %d, leads it: %v; the test needs a demoted RP", top, r.Layers.Leader(int32(max(top, 0))) == rp[0])
	}
	maxTop := 0
	for _, a := range addrs[:joiner] {
		maxTop = max(maxTop, topLayer(niceOf(c, a)))
	}
	if maxTop <= topLayer(r) {
		t.Fatalf("hierarchy top %d, RP top %d: the RP's top cluster is the hierarchy's", maxTop, topLayer(r))
	}

	if _, err := c.Spawn(joiner, stack); err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Minute)
	j := addrs[joiner]
	if st := c.Nodes[j].Instance("nice").State(); st != "joined" {
		t.Fatalf("joiner state %q", st)
	}
	for _, m := range niceOf(c, j).Layers.Members(0) {
		if siteOf[m] != 2 {
			t.Errorf("joiner at site 2 sits in a bottom cluster with %v at site %d", m, siteOf[m])
		}
	}
}
