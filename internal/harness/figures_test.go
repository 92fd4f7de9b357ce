package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
	"macedon/internal/overlays/scribe"
	"macedon/internal/repo"
	"macedon/internal/scenario"
)

// The paper's Figures 8–12 are the sweeps under examples/figures. These
// tests load each committed sweep, shrink its population and durations (or
// load the committed -small file), run it through RunSweep, and check the
// shape the paper reports.

// loadFigure reads examples/figures/<name>.json.
func loadFigure(t *testing.T, name string) *scenario.Sweep {
	t.Helper()
	sw, err := scenario.LoadSweep(repo.Path("examples", "figures", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// seriesColumn returns one column of phase pi's time series.
func seriesColumn(t *testing.T, rep *scenario.Report, pi int, col string) []float64 {
	t.Helper()
	s := rep.Phases[pi].Obs.Series
	for ci, c := range s.Columns {
		if c == col {
			vals := make([]float64, len(s.Points))
			for i, pt := range s.Points {
				vals[i] = pt.Values[ci]
			}
			return vals
		}
	}
	t.Fatalf("%s: phase %d series has no %s column: %v", rep.Scenario, pi, col, s.Columns)
	return nil
}

// startRun builds one scenario's emulated run and lays out its whole
// schedule, leaving the clock to the test, which can then look inside the
// cluster between runs.
func startRun(t *testing.T, s *scenario.Scenario) (*simRun, *scenario.Schedule) {
	t.Helper()
	sched, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newSimRun(sched, ExecOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.c.StopAll)
	r.scheduleSetup()
	r.schedulePhases(0, len(sched.Phases)-1)
	r.arm(0)
	return r, sched
}

// variantReport finds a sweep variant's report by name.
func variantReport(t *testing.T, rep *scenario.SweepReport, name string) *scenario.Report {
	t.Helper()
	for _, vr := range rep.Results {
		if vr.Name == name {
			return vr.Report
		}
	}
	t.Fatalf("sweep %q has no variant %q", rep.Name, name)
	return nil
}

// nicePublishedStretch and nicePublishedLatency are the NICE authors'
// per-site results, read off Figures 15/16 of the NICE SIGCOMM paper as the
// MACEDON authors did for their Figures 8 and 9: mean stretch, and mean
// latency in milliseconds, one entry a site of the 8-site testbed.
var (
	nicePublishedStretch = []float64{1.1, 1.3, 1.5, 1.6, 1.8, 2.0, 2.2, 2.4}
	nicePublishedLatency = []float64{5, 10, 14, 18, 23, 27, 33, 40}
)

// TestFigure8Shape runs examples/figures/fig8-small.json (16 NICE members
// over 4 sites) and validates Figures 8–9 qualitatively: every site
// receives the stream, the farthest site sees more latency than the
// source's own, and stretch stays in a plausible band.
func TestFigure8Shape(t *testing.T) {
	rep, err := RunSweep(loadFigure(t, "fig8-small"), 1)
	if err != nil {
		t.Fatal(err)
	}
	sites := rep.Results[0].Report.Sites
	if len(sites) != 4 {
		t.Fatalf("%d sites in the report, want 4", len(sites))
	}
	for _, s := range sites {
		t.Logf("site %d: members=%d received=%d latency=%v (published %.0f ms) stretch=%.2f (published %.1f)",
			s.Site, s.Members, s.Received, s.MeanLatency, nicePublishedLatency[s.Site], s.MeanStretch, nicePublishedStretch[s.Site])
		if s.Received == 0 {
			t.Errorf("site %d received nothing", s.Site)
		} else if s.MeanStretch < 0.8 || s.MeanStretch > 8 {
			t.Errorf("site %d stretch %.2f outside [0.8, 8]", s.Site, s.MeanStretch)
		}
	}
	if near, far := sites[0], sites[len(sites)-1]; far.MeanLatency <= near.MeanLatency {
		t.Errorf("far site latency %v <= the source site's %v", far.MeanLatency, near.MeanLatency)
	}
}

// TestFigure8EverySiteReceives runs the committed Figure 8 (64 NICE members
// over 8 sites) at four seeds and requires each site to receive at least
// 0.99 of the packets sent to its members. Before NICE handed off the
// clusters a demoted leader led, every one of these seeds left whole sites
// with nothing: site 6 at seed 2004, sites 1–3 at seeds 1 and 8, and sites
// 2, 3 and 5 at seed 10.
func TestFigure8EverySiteReceives(t *testing.T) {
	for _, seed := range []int64{2004, 1, 8, 10} {
		sw := loadFigure(t, "fig8")
		sw.Base.Seed = seed
		rep, err := RunSweep(sw, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := rep.Results[0].Report
		sent := r.Phases[0].OpsSent
		for _, s := range r.Sites {
			receivers := s.Members
			if s.Site == 0 {
				receivers-- // node 0 is the source
			}
			if full := sent * receivers; float64(s.Received) < 0.99*float64(full) {
				t.Errorf("seed %d: site %d received %d of %d packets", seed, s.Site, s.Received, full)
			}
		}
	}
}

// TestFigure10Shape runs a reduced Figure 10 and validates the paper's
// qualitative claims on the correct-finger curves (the fingers_ok column a
// checked scenario samples): the 1 s static timer converges faster than the
// 20 s one, and the dynamic baseline sits strictly in between.
func TestFigure10Shape(t *testing.T) {
	sw := loadFigure(t, "fig10")
	sw.Base.Nodes, sw.Base.Routers, sw.Base.Seed = 40, 150, 5
	sw.Base.Join.Window = scenario.Duration(20 * time.Second)
	sw.Base.Settle = scenario.Duration(20 * time.Second)
	sw.Base.Phases[0].Duration = scenario.Duration(82 * time.Second)
	rep, err := RunSweepExec(sw, 1, ObsOptions{Enabled: true, TraceSample: 1 << 30, SeriesInterval: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups != 3 {
		t.Fatalf("%d prefix groups, want 3: variants that differ only in params run cold", rep.Groups)
	}
	final := map[string]float64{}
	for _, vr := range rep.Results {
		ys := seriesColumn(t, vr.Report, 0, "fingers_ok")
		final[vr.Name] = ys[len(ys)-1]
		// Convergence must be monotone-ish: final >= value at 1/4 time.
		if q := ys[len(ys)/4]; ys[len(ys)-1]+1 < q {
			t.Errorf("%s regressed: %.1f -> %.1f", vr.Name, q, ys[len(ys)-1])
		}
	}
	fast, lsd, slow := final["macedon-1s"], final["mit-lsd"], final["macedon-20s"]
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
}

// freePastry is Figure 11's FreePastry(RMI) baseline, computed from a
// MACEDON phase report: §4.2.3 puts FreePastry's latency in Java RMI, which
// delays every data hop a node acts on by d = 40 ms + 0.6 ms × N; nothing
// queues behind the delay, so a packet pays it once per forward upcall, and
// a delivered packet meets mean_hops − 1 of those.
func freePastry(p scenario.PhaseReport, nodes int) time.Duration {
	d := 40*time.Millisecond + time.Duration(nodes)*600*time.Microsecond
	return p.MeanLatency + time.Duration((p.MeanHops-1)*float64(d))
}

// shrinkFigure11 keeps the first two sizes of the committed sweep and
// shortens its settle and measurement.
func shrinkFigure11(t *testing.T) *scenario.Sweep {
	sw := loadFigure(t, "fig11")
	sw.Base.Seed = 7
	sw.Base.Settle = scenario.Duration(60 * time.Second)
	sw.Base.Phases[0].Duration = scenario.Duration(10 * time.Second)
	sw.Variants = sw.Variants[:2]
	return sw
}

// TestFigure11Shape validates the paper's claim that MACEDON latency is far
// below the FreePastry baseline.
func TestFigure11Shape(t *testing.T) {
	rep, err := RunSweep(shrinkFigure11(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, vr := range rep.Results {
		p := vr.Report.Phases[0]
		m, f := p.MeanLatency, freePastry(p, vr.Report.Nodes)
		t.Logf("size %d: MACEDON %v FreePastry %v (%.2f hops)", vr.Report.Nodes, m, f, p.MeanHops)
		if p.OpsDelivered == 0 || m <= 0 {
			t.Fatalf("no MACEDON deliveries at size %d", vr.Report.Nodes)
		}
		if float64(f) < 1.5*float64(m) {
			t.Fatalf("FreePastry baseline (%v) should be well above MACEDON (%v)", f, m)
		}
	}
}

// TestFreePastryChargesOncePerForward: the FreePastry baseline charges d per
// forward upcall through mean_hops, which rests on the phase's OpsForwarded
// being exactly the forward upcalls the Pastry instances issued for the
// workload. A Figure 11 run settles before its workload starts, so every
// forward any instance counted belongs to a workload op.
func TestFreePastryChargesOncePerForward(t *testing.T) {
	vs, err := shrinkFigure11(t).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	r, sched := startRun(t, vs[0].Scenario)
	r.c.RunFor(sched.Total)
	p := r.eng.Report().Phases[0]
	var forwards uint64
	for _, a := range r.c.Addrs {
		forwards += r.c.Nodes[a].Instance("pastry").Counters().Forwarded
	}
	if p.OpsDelivered == 0 || p.OpsDelivered != p.OpsSent {
		t.Fatalf("delivered %d of %d lookups", p.OpsDelivered, p.OpsSent)
	}
	if forwards == 0 || uint64(p.OpsForwarded) != forwards {
		t.Fatalf("the phase counts %d forwards, the Pastry instances %d", p.OpsForwarded, forwards)
	}
	if want := float64(p.OpsForwarded+p.OpsDelivered) / float64(p.OpsDelivered); p.MeanHops != want {
		t.Fatalf("mean_hops = %v, want (forwards + deliveries) / deliveries = %v", p.MeanHops, want)
	}
}

// kbps is a multicast phase's delivered bandwidth per receiver: every node
// but the source (node 0) is a member.
func kbps(r *scenario.Report, pi int, size int) float64 {
	p := r.Phases[pi]
	return float64(p.OpsDelivered*size*8) / (p.End - p.Start).Seconds() / float64(r.Nodes-1) / 1000
}

// TestFigure12Shape validates the cache-policy ordering: no eviction does
// not lose to a 10 s cache lifetime, and both deliver most of the stream.
func TestFigure12Shape(t *testing.T) {
	sw := loadFigure(t, "fig12")
	sw.Base.Nodes, sw.Base.Routers, sw.Base.Seed = 24, 100, 11
	sw.Base.Settle = scenario.Duration(60 * time.Second)
	for i := range sw.Base.Phases {
		sw.Base.Phases[i].Duration = scenario.Duration(30 * time.Second)
	}
	rep, err := RunSweep(sw, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := sw.Base.Phases[1].Workload
	target := w.Rate * float64(w.Size*8) / 1000
	noEvict := kbps(variantReport(t, rep, "no-eviction"), 1, w.Size)
	flush := kbps(variantReport(t, rep, "flush-10s"), 1, w.Size)
	t.Logf("steady state: no-evict %.0f Kbps, 10 s flush %.0f Kbps (target %.0f)", noEvict, flush, target)
	if noEvict < 0.7*target {
		t.Fatalf("no-eviction bandwidth %.0f Kbps far below target", noEvict)
	}
	if flush <= 0 {
		t.Fatal("the flushing policy delivered nothing")
	}
	if noEvict < 0.85*flush {
		t.Fatalf("no-eviction (%.0f) should not clearly lose to a 10 s flush (%.0f)", noEvict, flush)
	}
}

// TestSplitStreamOneRootPerStripe runs Figure 12's 102-node forest. The
// source creates the group at spawn, on a cold Pastry routing table, and
// for some stripes its create_g is delivered to itself: it claims a root
// the DHT later places elsewhere. A root revalidates its claim on every
// refresh, member or not, so after the settle each stripe has exactly one
// root; and the stream then reaches every member of every stripe tree.
func TestSplitStreamOneRootPerStripe(t *testing.T) {
	vs, err := loadFigure(t, "fig12").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	s := vs[0].Scenario
	s.Phases = s.Phases[:1]
	s.Phases[0].Duration = scenario.Duration(20 * time.Second)
	r, sched := startRun(t, s)
	r.c.RunFor(sched.Settle)

	// entry is node a's Scribe record of stripe key k.
	entry := func(a overlay.Address, k overlay.Key) scribe.GroupsEntry {
		return core.KeyRead(r.c.Nodes[a].Instance("scribe").Agent().(*scribe.Agent).Groups, k)
	}
	group := overlay.HashString(s.GroupName())
	var claims []string
	for i := 0; i < 16; i++ {
		k := group.WithDigit(0, 4, i)
		var roots []int
		for ni, a := range r.c.Addrs {
			if entry(a, k).Root {
				roots = append(roots, ni)
			}
		}
		if len(roots) != 1 {
			claims = append(claims, fmt.Sprintf("stripe %d: roots %v", i, roots))
		}
	}
	if len(claims) > 0 {
		t.Fatalf("after the settle, stripes without exactly one root:\n  %s", strings.Join(claims, "\n  "))
	}

	r.c.RunFor(sched.Total - sched.Settle)
	p := r.eng.Report().Phases[0]
	full := p.OpsSent * (s.Nodes - 1)
	frac := float64(p.OpsDelivered) / float64(full)
	t.Logf("delivered %d of %d (%.3f of full dissemination)", p.OpsDelivered, full, frac)
	if frac < 0.95 {
		t.Fatalf("the stream reached %.3f of full dissemination, want >= 0.95", frac)
	}
	// Every member's parent counts it as a child: a refresh ack from a
	// parent the member has since left must not re-parent it.
	for i := 0; i < 16; i++ {
		k := group.WithDigit(0, 4, i)
		for ni, a := range r.c.Addrs {
			par := entry(a, k).Parent
			if par == overlay.NilAddress {
				continue
			}
			if !slices.Contains(entry(par, k).Children.Addrs, a) {
				t.Errorf("stripe %d: node %d's parent %v does not count it as a child", i, ni, par)
			}
		}
	}
}
