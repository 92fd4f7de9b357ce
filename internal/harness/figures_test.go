package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/overlays/scribe"
	"macedon/internal/overlays/splitstream"
	"macedon/internal/repo"
	"macedon/internal/scenario"
)

// The paper's Figures 10–12 are the sweeps under examples/figures. These
// tests load each committed sweep, shrink its population and durations, run
// it through RunSweep, and check the shape the paper reports.

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

	agent := func(a overlay.Address) *scribe.Protocol {
		return r.c.Nodes[a].Instance("scribe").Agent().(*scribe.Protocol)
	}
	group := overlay.HashString(s.GroupName())
	var claims []string
	for i := 0; i < 16; i++ {
		k := splitstream.StripeKey(group, i)
		var roots []int
		for ni, a := range r.c.Addrs {
			if agent(a).IsRoot(k) {
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
		k := splitstream.StripeKey(group, i)
		for ni, a := range r.c.Addrs {
			par := agent(a).Parent(k)
			if par == overlay.NilAddress {
				continue
			}
			if !slices.Contains(agent(par).Children(k), a) {
				t.Errorf("stripe %d: node %d's parent %v does not count it as a child", i, ni, par)
			}
		}
	}
}
