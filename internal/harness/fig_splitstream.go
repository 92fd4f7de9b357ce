package harness

import (
	"time"

	"macedon/internal/core"
	"macedon/internal/metrics"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genpastry"
	"macedon/internal/overlays/scribe"
	"macedon/internal/overlays/splitstream"
)

// SplitStreamPolicy is one Figure-12 curve: a Pastry location-cache
// configuration.
type SplitStreamPolicy struct {
	Name string
	// CacheMs is specs/pastry.mac's cache_ms: 0 keeps an entry until its
	// owner fails, a positive value empties the cache every CacheMs.
	CacheMs int32
}

// Figure12Policies are the paper's two flavors.
func Figure12Policies() []SplitStreamPolicy {
	return []SplitStreamPolicy{
		{Name: "Avg Bandwidth (no cache evictions)"},
		{Name: "Avg Bandwidth (10 sec cache lifetime)", CacheMs: 10_000},
	}
}

// SplitStreamParams configures the Figure-12 reproduction.
type SplitStreamParams struct {
	Nodes       int // default 100 (paper: 300)
	Routers     int
	Seed        int64
	Stripes     int           // default 16
	MaxChildren int           // per-stripe fan-out bound (default 16)
	Converge    time.Duration // Pastry convergence idle (default 300 s)
	Stream      time.Duration // stream length (default 300 s)
	RateBitsSec int           // default 600_000
	PacketSize  int           // default 1000
	Bucket      time.Duration // bandwidth buckets (default 10 s)
	Policies    []SplitStreamPolicy
}

func (p *SplitStreamParams) setDefaults() {
	if p.Nodes <= 0 {
		p.Nodes = 100
	}
	if p.Stripes <= 0 {
		p.Stripes = 16
	}
	if p.MaxChildren <= 0 {
		p.MaxChildren = 16
	}
	if p.Converge <= 0 {
		p.Converge = 300 * time.Second
	}
	if p.Stream <= 0 {
		p.Stream = 300 * time.Second
	}
	if p.RateBitsSec <= 0 {
		p.RateBitsSec = 600_000
	}
	if p.PacketSize <= 0 {
		p.PacketSize = 1000
	}
	if p.Bucket <= 0 {
		p.Bucket = 10 * time.Second
	}
	if len(p.Policies) == 0 {
		p.Policies = Figure12Policies()
	}
}

// SplitStreamResult is Figure 12: per policy, per-node average delivered
// bandwidth over time.
type SplitStreamResult struct {
	Series []Series
	// TargetBitsSec echoes the stream rate for reference lines.
	TargetBitsSec int
}

// RunSplitStream reproduces Figure 12: a SplitStream forest, one source
// streaming at the target rate, receivers' average bandwidth bucketed over
// time, under each location-cache policy.
func RunSplitStream(p SplitStreamParams) (*SplitStreamResult, error) {
	p.setDefaults()
	res := &SplitStreamResult{TargetBitsSec: p.RateBitsSec}
	for _, pol := range p.Policies {
		series, err := runSplitStreamOnce(p, pol)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

func runSplitStreamOnce(p SplitStreamParams, pol SplitStreamPolicy) (Series, error) {
	c, err := NewCluster(ClusterConfig{Nodes: p.Nodes, Routers: p.Routers, Seed: p.Seed})
	if err != nil {
		return Series{}, err
	}
	stack := []core.Factory{
		func() core.Agent { return &genpastry.Agent{CacheMs: pol.CacheMs} },
		scribe.New(scribe.Params{MaxChildren: p.MaxChildren}),
		splitstream.New(splitstream.Params{Stripes: p.Stripes}),
	}
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		return Series{}, err
	}
	group := overlay.HashString("figure12-session")

	// Pastry converges while the system idles (§4.2.4: "we first allow
	// Pastry routing tables to converge by idling the system").
	c.RunFor(p.Converge)

	src := c.Addrs[0]
	receivers := c.Addrs[1:]
	streamStart := c.Sched.Now().Add(30 * time.Second) // after trees build
	perNode := make(map[overlay.Address]*metrics.BandwidthSeries, len(receivers))
	for _, a := range receivers {
		addr := a
		series := metrics.NewBandwidthSeries(streamStart, p.Bucket)
		perNode[addr] = series
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(payload []byte, typ int32, _ overlay.Address) {
				series.Add(c.Sched.Now(), len(payload))
			},
		})
		_ = c.Nodes[a].Join(group)
	}
	c.RunFor(30 * time.Second) // forest construction

	interval := time.Duration(int64(p.PacketSize*8) * int64(time.Second) / int64(p.RateBitsSec))
	for elapsed := time.Duration(0); elapsed < p.Stream; elapsed += interval {
		payload := TimestampPayload(c.Sched.Now(), p.PacketSize)
		_ = c.Nodes[src].Multicast(group, payload, 1, overlay.PriorityDefault)
		c.RunFor(interval)
	}
	c.RunFor(5 * time.Second)
	c.StopAll()

	// Average the per-node series pointwise.
	buckets := int(p.Stream / p.Bucket)
	series := Series{Name: pol.Name}
	for b := 0; b < buckets; b++ {
		var sum float64
		var n int
		for _, bs := range perNode {
			pts := bs.Points()
			if b < len(pts) {
				sum += pts[b].BitsPerSec
				n++
			}
		}
		avg := 0.0
		if n > 0 {
			avg = sum / float64(len(perNode))
		}
		series.Points = append(series.Points, Point{
			X: (time.Duration(b) * p.Bucket).Seconds(),
			Y: avg / 1000.0, // Kbps, as the figure's axis
		})
	}
	return series, nil
}

// Print renders the Figure-12 table.
func (r *SplitStreamResult) Print(w func(format string, args ...any)) {
	w("Figure 12 — SplitStream bandwidth for two cache policies (target %d Kbps)\n",
		r.TargetBitsSec/1000)
	w("%-8s", "time(s)")
	for _, s := range r.Series {
		w(" %-40s", s.Name)
	}
	w("\n")
	if len(r.Series) == 0 {
		return
	}
	for i := range r.Series[0].Points {
		w("%-8.0f", r.Series[0].Points[i].X)
		for _, s := range r.Series {
			if i < len(s.Points) {
				w(" %-40.0f", s.Points[i].Y)
			}
		}
		w("\n")
	}
}

// SteadyStateKbps averages each curve over its second half: the paper's
// "delivers an average of X Kbps" numbers.
func (r *SplitStreamResult) SteadyStateKbps() map[string]float64 {
	out := make(map[string]float64, len(r.Series))
	for _, s := range r.Series {
		if len(s.Points) == 0 {
			continue
		}
		half := s.Points[len(s.Points)/2:]
		var sum float64
		for _, pt := range half {
			sum += pt.Y
		}
		out[s.Name] = sum / float64(len(half))
	}
	return out
}
