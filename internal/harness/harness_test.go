package harness

import (
	"strings"
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlays/genpastry"
)

func TestClusterBasics(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 5, Routers: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Addrs) != 5 {
		t.Fatalf("addrs = %d", len(c.Addrs))
	}
	if c.Bootstrap() != c.Addrs[0] {
		t.Fatal("bootstrap should be first client")
	}
	if _, err := c.DirectLatency(c.Addrs[0], c.Addrs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Fatal("empty config should fail")
	}
}

func TestTimestampPayload(t *testing.T) {
	now := time.Unix(12345, 67890)
	p := TimestampPayload(now, 100)
	if len(p) != 100 {
		t.Fatalf("len = %d", len(p))
	}
	got, ok := DecodeTimestamp(p)
	if !ok || !got.Equal(now) {
		t.Fatalf("decode = %v, %v", got, ok)
	}
	if _, ok := DecodeTimestamp([]byte{1}); ok {
		t.Fatal("short payload should fail")
	}
	if p := TimestampPayload(now, 2); len(p) != 8 {
		t.Fatalf("minimum size not applied: %d", len(p))
	}
}

// TestFigure10Shape runs a scaled-down Figure 10 and validates the paper's
// qualitative claims: the 1 s static timer converges faster than the 20 s
// one, and the dynamic baseline sits in between (or near the fast curve).
func TestFigure10Shape(t *testing.T) {
	res, err := RunChordConvergence(ChordParams{
		Nodes:      40,
		Routers:    150,
		Seed:       5,
		JoinWindow: 20 * time.Second,
		Duration:   100 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	finals := res.FinalValues()
	fast := finals["MACEDON (1 sec timer)"]
	slow := finals["MACEDON (20 sec timer)"]
	lsd := finals["MIT lsd (dynamic)"]
	t.Logf("final correct entries: 1s=%.1f lsd=%.1f 20s=%.1f", fast, lsd, slow)
	// The paper's ordering, strict: 1 s > lsd > 20 s.
	if fast <= lsd {
		t.Fatalf("1s timer (%.1f) should beat lsd dynamic (%.1f)", fast, lsd)
	}
	if lsd <= slow {
		t.Fatalf("lsd dynamic (%.1f) should beat the 20s static timer (%.1f)", lsd, slow)
	}
	if fast < 10 {
		t.Fatalf("1s timer converged too little: %.1f correct entries", fast)
	}
	// Convergence must be monotone-ish: final >= value at 1/4 time.
	for _, s := range res.Series {
		q := s.Points[len(s.Points)/4].Y
		f := s.Points[len(s.Points)-1].Y
		if f+1 < q {
			t.Errorf("%s regressed: %.1f -> %.1f", s.Name, q, f)
		}
	}
	var sb strings.Builder
	res.Print(func(f string, a ...any) { sb.WriteString(sprintf(f, a...)) })
	if !strings.Contains(sb.String(), "Figure 10") {
		t.Fatal("printer missing header")
	}
}

// TestFigure11Shape validates the paper's claim that MACEDON latency is far
// below the FreePastry baseline and roughly flat with size.
func TestFigure11Shape(t *testing.T) {
	res, err := RunPastryLatency(PastryParams{
		Sizes:    []int{15, 30},
		Seed:     7,
		Converge: 60 * time.Second,
		Measure:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MACEDON.Points) != 2 || len(res.FreePastry.Points) != 2 {
		t.Fatalf("points: %d macedon, %d freepastry", len(res.MACEDON.Points), len(res.FreePastry.Points))
	}
	for i := range res.MACEDON.Points {
		m, f := res.MACEDON.Points[i].Y, res.FreePastry.Points[i].Y
		t.Logf("size %.0f: MACEDON %.3fs FreePastry %.3fs", res.MACEDON.Points[i].X, m, f)
		if m <= 0 {
			t.Fatalf("no MACEDON deliveries at size %v", res.MACEDON.Points[i].X)
		}
		if f < m*1.5 {
			t.Fatalf("FreePastry baseline (%.3fs) should be well above MACEDON (%.3fs)", f, m)
		}
	}
	var sb strings.Builder
	res.Print(func(f string, a ...any) { sb.WriteString(sprintf(f, a...)) })
	if !strings.Contains(sb.String(), "Figure 11") {
		t.Fatal("printer missing header")
	}
}

// TestFreePastryChargesOncePerForward: Figure 11's FreePastry column is the
// MACEDON run plus d = 40 ms + 0.6 ms × N for every forward upcall a
// delivered packet met. A replay of the same run recounts the forwards from
// the engine's own per-instance counters.
func TestFreePastryChargesOncePerForward(t *testing.T) {
	const n = 12
	p := PastryParams{Sizes: []int{n}, Seed: 5, Converge: 60 * time.Second, Measure: 5 * time.Second}
	res, err := RunPastryLatency(p)
	if err != nil {
		t.Fatal(err)
	}
	p.setDefaults()
	c, err := NewCluster(ClusterConfig{Nodes: n, Routers: p.Routers, Seed: p.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	if err := c.SpawnAll(func(int) []core.Factory { return []core.Factory{genpastry.New()} }); err != nil {
		t.Fatal(err)
	}
	tally := streamPastry(c, p)
	var forwards uint64
	for _, a := range c.Addrs {
		forwards += c.Nodes[a].Instance("pastry").Counters().Forwarded
	}
	// Every packet arrives, so every forward belongs to a delivered packet.
	if tally.delivered == 0 || tally.delivered != tally.sent {
		t.Fatalf("delivered %d of %d packets", tally.delivered, tally.sent)
	}
	if forwards == 0 || uint64(tally.forwards) != forwards {
		t.Fatalf("forward hook counted %d upcalls, the engine %d", tally.forwards, forwards)
	}
	d := 40*time.Millisecond + n*600*time.Microsecond
	macedon := tally.latency / time.Duration(tally.delivered)
	freePastry := (tally.latency + time.Duration(forwards)*d) / time.Duration(tally.delivered)
	if got := res.MACEDON.Points[0].Y; got != macedon.Seconds() {
		t.Errorf("MACEDON = %v s, want %v", got, macedon.Seconds())
	}
	if got := res.FreePastry.Points[0].Y; got != freePastry.Seconds() {
		t.Errorf("FreePastry = %v s, want %v: %d forwards over %d packets at d = %v",
			got, freePastry.Seconds(), forwards, tally.delivered, d)
	}
}

// TestFigure12Shape validates the cache-policy ordering: no eviction beats a
// short TTL, and both deliver a large fraction of the stream rate.
func TestFigure12Shape(t *testing.T) {
	res, err := RunSplitStream(SplitStreamParams{
		Nodes:       24,
		Routers:     100,
		Seed:        11,
		Stripes:     4,
		Converge:    60 * time.Second,
		Stream:      60 * time.Second,
		RateBitsSec: 100_000,
		PacketSize:  500,
		Bucket:      10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := res.SteadyStateKbps()
	noEvict := ss["Avg Bandwidth (no cache evictions)"]
	ttl := ss["Avg Bandwidth (10 sec cache lifetime)"]
	t.Logf("steady state: no-evict %.0f Kbps, ttl %.0f Kbps (target %d)", noEvict, ttl, res.TargetBitsSec/1000)
	if noEvict < float64(res.TargetBitsSec)/1000*0.7 {
		t.Fatalf("no-eviction bandwidth %.0f Kbps far below target", noEvict)
	}
	if ttl <= 0 {
		t.Fatal("ttl policy delivered nothing")
	}
	if noEvict < ttl*0.85 {
		t.Fatalf("no-eviction (%.0f) should not clearly lose to short TTL (%.0f)", noEvict, ttl)
	}
	var sb strings.Builder
	res.Print(func(f string, a ...any) { sb.WriteString(sprintf(f, a...)) })
	if !strings.Contains(sb.String(), "Figure 12") {
		t.Fatal("printer missing header")
	}
}

// TestNICEFigureShape validates Figures 8/9 qualitatively: distant sites see
// higher latency, stretch stays in the published band, everyone receives.
func TestNICEFigureShape(t *testing.T) {
	res, err := RunNICE(NICEParams{
		Sites:   4,
		PerSite: 4,
		Seed:    13,
		Settle:  3 * time.Minute,
		Packets: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 4 {
		t.Fatalf("sites = %d", len(res.Sites))
	}
	for _, s := range res.Sites {
		t.Logf("site %d: members=%d received=%d stretch=%.2f latency=%v",
			s.Site, s.Members, s.Received, s.MeanStretch, s.MeanLatency)
	}
	for _, s := range res.Sites[1:] {
		if s.Received == 0 {
			t.Fatalf("site %d received nothing", s.Site)
		}
		if s.MeanStretch < 0.8 || s.MeanStretch > 8 {
			t.Fatalf("site %d stretch %.2f outside plausible band", s.Site, s.MeanStretch)
		}
	}
	// The farthest site must see more latency than the source's own site.
	near, far := res.Sites[0], res.Sites[len(res.Sites)-1]
	if far.MeanLatency <= near.MeanLatency {
		t.Fatalf("far site latency %v <= near site %v", far.MeanLatency, near.MeanLatency)
	}
	var sb strings.Builder
	res.PrintFigure8(func(f string, a ...any) { sb.WriteString(sprintf(f, a...)) })
	res.PrintFigure9(func(f string, a ...any) { sb.WriteString(sprintf(f, a...)) })
	out := sb.String()
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "Figure 9") {
		t.Fatal("printers missing headers")
	}
}
