package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"macedon/internal/overlay"
)

// INETParams configures the INET-style power-law topology generator. The
// paper's experiments use 20,000-node INET graphs with 200–1000 clients
// multiplexed onto them; the same construction at configurable scale.
type INETParams struct {
	Routers int   // number of router vertices (>= 4)
	Seed    int64 // PRNG seed; the same seed reproduces the same graph

	// EdgesPerNode is the preferential-attachment out-degree of each joining
	// router (the classic m parameter); heavy-tailed degrees emerge.
	EdgesPerNode int
	// ExtraEdgeFrac adds ExtraEdgeFrac*Routers random shortcut edges,
	// mimicking INET's deviation from a pure tree-like core.
	ExtraEdgeFrac float64

	// CoreBandwidth is assigned to links whose endpoints are both in the top
	// decile by degree; TransitBandwidth to mixed links; StubBandwidth to
	// links between low-degree routers.
	CoreBandwidth, TransitBandwidth, StubBandwidth int64
	// QueueBytes is the drop-tail capacity of every router-router pipe.
	QueueBytes int
	// MinLatency/MaxLatency bound per-link propagation delay, which is drawn
	// from the distance between the routers' random plane embeddings.
	MinLatency, MaxLatency time.Duration
}

// DefaultINET returns the generator parameters used throughout the
// experiments, scaled to n routers.
func DefaultINET(n int, seed int64) INETParams {
	return INETParams{
		Routers:          n,
		Seed:             seed,
		EdgesPerNode:     2,
		ExtraEdgeFrac:    0.2,
		CoreBandwidth:    155_000_000, // OC-3 core
		TransitBandwidth: 45_000_000,  // T3 transit
		StubBandwidth:    10_000_000,  // Ethernet stub
		QueueBytes:       150 * 1500,  // 150 full packets
		MinLatency:       time.Millisecond,
		MaxLatency:       40 * time.Millisecond,
	}
}

// INET generates a power-law router graph by degree-preferential attachment
// over a random plane embedding, then classifies link bandwidths by endpoint
// degree. The result is connected by construction: router 1 links to router
// 0, and every later router's first edge goes to an earlier one.
func INET(p INETParams) (*Graph, error) {
	if p.Routers < 4 {
		return nil, fmt.Errorf("topology: INET needs >= 4 routers, got %d", p.Routers)
	}
	if p.EdgesPerNode < 1 {
		p.EdgesPerNode = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := NewGraph()
	g.reserve(p.Routers, 0)

	xs := make([]float64, p.Routers)
	ys := make([]float64, p.Routers)
	for i := 0; i < p.Routers; i++ {
		g.AddRouter()
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}

	latency := func(a, b RouterID) time.Duration {
		dx, dy := xs[a]-xs[b], ys[a]-ys[b]
		d := math.Sqrt(dx*dx+dy*dy) / math.Sqrt2 // normalize to [0,1]
		lat := p.MinLatency + time.Duration(d*float64(p.MaxLatency-p.MinLatency))
		return lat
	}

	// Preferential attachment: each vertex i >= 1 wires to EdgesPerNode
	// earlier vertices chosen with probability proportional to degree+1.
	// repeated[] holds one entry per degree endpoint, the standard trick.
	// Every edge is at most the first, EdgesPerNode per later router, or an
	// extra one, so the edge set is sized once up front.
	extra := int(p.ExtraEdgeFrac * float64(p.Routers))
	maxEdges := 1 + (p.Routers-2)*p.EdgesPerNode + max(extra, 0)
	repeated := make([]RouterID, 0, 2*maxEdges)
	type pending struct{ a, b RouterID }
	edges := make([]pending, 0, maxEdges)
	have := make(map[uint64]struct{}, maxEdges)
	addEdge := func(a, b RouterID) {
		if a == b {
			return
		}
		k := uint64(min32(a, b))<<32 | uint64(max32(a, b))
		if _, dup := have[k]; dup {
			return
		}
		have[k] = struct{}{}
		edges = append(edges, pending{a, b})
		repeated = append(repeated, a, b)
	}
	addEdge(0, 1)
	for i := 2; i < p.Routers; i++ {
		v := RouterID(i)
		for e := 0; e < p.EdgesPerNode; e++ {
			t := repeated[rng.Intn(len(repeated))]
			if t == v {
				t = RouterID(rng.Intn(i))
			}
			addEdge(v, t)
		}
		if g := len(edges); g == 0 {
			addEdge(v, RouterID(rng.Intn(i)))
		}
	}
	for e := 0; e < extra; e++ {
		a := RouterID(rng.Intn(p.Routers))
		b := RouterID(rng.Intn(p.Routers))
		addEdge(a, b)
	}

	// Degree census for bandwidth classification.
	deg := make([]int, p.Routers)
	for _, e := range edges {
		deg[e.a]++
		deg[e.b]++
	}
	hi := degreeThreshold(deg, 0.9)
	g.reserve(0, 2*len(edges))
	for _, e := range edges {
		var bw int64
		switch {
		case deg[e.a] >= hi && deg[e.b] >= hi:
			bw = p.CoreBandwidth
		case deg[e.a] >= hi || deg[e.b] >= hi:
			bw = p.TransitBandwidth
		default:
			bw = p.StubBandwidth
		}
		g.AddLink(e.a, e.b, latency(e.a, e.b), bw, p.QueueBytes)
	}
	return g, nil
}

func degreeThreshold(deg []int, quantile float64) int {
	if len(deg) == 0 {
		return 0
	}
	cp := slices.Clone(deg)
	slices.Sort(cp)
	idx := int(quantile * float64(len(cp)-1))
	return cp[idx]
}

func min32(a, b RouterID) RouterID {
	if a < b {
		return a
	}
	return b
}

func max32(a, b RouterID) RouterID {
	if a > b {
		return a
	}
	return b
}

// StubRouters returns the router vertices in the bottom quartile by degree:
// where clients should attach (clients never attach at the core, matching
// how the paper places ModelNet edge nodes).
func StubRouters(g *Graph) []RouterID {
	n := g.NumRouters()
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		deg[i] = g.Degree(RouterID(i))
	}
	lo := degreeThreshold(deg, 0.25)
	var out []RouterID
	for i := 0; i < n; i++ {
		if _, isClient := g.ClientAt(RouterID(i)); isClient {
			continue
		}
		if deg[i] <= lo {
			out = append(out, RouterID(i))
		}
	}
	if len(out) == 0 {
		for i := 0; i < n; i++ {
			out = append(out, RouterID(i))
		}
	}
	return out
}

// AttachClients attaches n sequentially numbered clients (addresses base,
// base+1, …) to randomly chosen stub routers and returns their addresses.
func AttachClients(g *Graph, n int, base overlay.Address, access AccessLink, seed int64) []overlay.Address {
	rng := rand.New(rand.NewSource(seed))
	stubs := StubRouters(g)
	g.reserve(n, 2*n)
	addrs := make([]overlay.Address, n)
	for i := 0; i < n; i++ {
		addr := base + overlay.Address(i)
		g.AttachClient(addr, stubs[rng.Intn(len(stubs))], access)
		addrs[i] = addr
	}
	return addrs
}

// SiteMatrixParams describes an explicit multi-site topology: a full mesh of
// site gateway routers with a given one-way latency matrix, and a LAN per
// site. This re-creates the NICE authors' Internet-like testbed of 8 sites
// from extracted latency information, as the paper does for its Figures 8–9.
type SiteMatrixParams struct {
	// Latency[i][j] is the one-way inter-site latency between gateways i and
	// j. Only the upper triangle is read; the matrix must be square.
	Latency [][]time.Duration
	// LANLatency is the one-way latency of the per-site LAN hop.
	LANLatency time.Duration
	// WANBandwidth/LANBandwidth are the pipe capacities.
	WANBandwidth, LANBandwidth int64
	QueueBytes                 int
}

// NICESites re-creates the NICE authors' Internet-like testbed that Figures
// 8–9 of the paper run on, from the latency information the MACEDON
// authors extracted: the one-way latency between sites i and j grows with
// their index distance, 2 + 5·|i − j| ms capped at 40 ms, and each site's
// LAN hop is 1 ms.
func NICESites(sites int) SiteMatrixParams {
	lat := make([][]time.Duration, sites)
	for i := range lat {
		lat[i] = make([]time.Duration, sites)
		for j := range lat[i] {
			if i != j {
				d := time.Duration(2+5*max(i-j, j-i)) * time.Millisecond
				lat[i][j] = min(d, 40*time.Millisecond)
			}
		}
	}
	return SiteMatrixParams{Latency: lat, LANLatency: time.Millisecond}
}

func (p *SiteMatrixParams) setDefaults() {
	if p.LANLatency <= 0 {
		p.LANLatency = time.Millisecond
	}
	if p.WANBandwidth == 0 {
		p.WANBandwidth = 45_000_000
	}
	if p.LANBandwidth == 0 {
		p.LANBandwidth = 100_000_000
	}
	if p.QueueBytes == 0 {
		p.QueueBytes = 150 * 1500
	}
}

// SiteMatrix builds the site topology and returns the graph plus the gateway
// vertex of each site.
func SiteMatrix(p SiteMatrixParams) (*Graph, []RouterID, error) {
	n := len(p.Latency)
	if n == 0 {
		return nil, nil, fmt.Errorf("topology: empty site matrix")
	}
	for i := range p.Latency {
		if len(p.Latency[i]) != n {
			return nil, nil, fmt.Errorf("topology: site matrix is not square")
		}
	}
	p.setDefaults()
	g := NewGraph()
	gws := make([]RouterID, n)
	for i := range gws {
		gws[i] = g.AddRouter()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if p.Latency[i][j] > 0 {
				g.AddLink(gws[i], gws[j], p.Latency[i][j], p.WANBandwidth, p.QueueBytes)
			}
		}
	}
	if !g.IsConnected() {
		return nil, nil, fmt.Errorf("topology: site matrix leaves sites unreachable")
	}
	return g, gws, nil
}

// AttachSiteClients attaches per-site clients over the site LAN and returns
// the address list and a parallel site-index list.
func AttachSiteClients(g *Graph, gws []RouterID, perSite int, base overlay.Address, p SiteMatrixParams) ([]overlay.Address, []int) {
	p.setDefaults()
	var addrs []overlay.Address
	var sites []int
	access := AccessLink{Latency: p.LANLatency, Bandwidth: p.LANBandwidth, QueueBytes: p.QueueBytes}
	next := base
	for s, gw := range gws {
		for i := 0; i < perSite; i++ {
			g.AttachClient(next, gw, access)
			addrs = append(addrs, next)
			sites = append(sites, s)
			next++
		}
	}
	return addrs, sites
}
