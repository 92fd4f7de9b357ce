// Benchmarks regenerating Figure 7 of the MACEDON paper's evaluation, plus
// ablations of the design choices DESIGN.md calls out. Figures 8–12 are the
// sweeps under examples/figures, run by `macedon sweep`.
//
// Reported custom metrics carry the quantity each figure plots, so one
// -bench=. run yields the whole paper-vs-measured table of EXPERIMENTS.md.
package main

import (
	"os"
	"sync"
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/dsl"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/chord"
	"macedon/internal/overlays/pastry"
	"macedon/internal/repo"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
	"macedon/internal/topology"
	"macedon/internal/transport"
)

// BenchmarkFigure7SpecLines reports the Figure-7 LOC metric for the bundled
// specifications (mean lines per spec, and total).
func BenchmarkFigure7SpecLines(b *testing.B) {
	paths, err := repo.Specs()
	if err != nil || len(paths) == 0 {
		b.Fatalf("no specs: %v", err)
	}
	var total int
	for i := 0; i < b.N; i++ {
		total = 0
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				b.Fatal(err)
			}
			n, err := dsl.CountLines(string(src))
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
	}
	b.ReportMetric(float64(total), "loc_total")
	b.ReportMetric(float64(total)/float64(len(paths)), "loc_per_spec")
}

// --- ablations -----------------------------------------------------------------

// BenchmarkAblationReadVsWriteLocking measures the paper's control/data
// transition classification (§2.1.2): concurrent data transitions under
// read locks vs forced exclusive locks.
func BenchmarkAblationReadVsWriteLocking(b *testing.B) {
	run := func(b *testing.B, lock core.LockMode) {
		g := topology.NewGraph()
		r := g.AddRouter()
		g.AttachClient(1, r, topology.DefaultAccess)
		sched := simnet.NewScheduler(1)
		net := simnet.New(sched, g, simnet.Config{})
		probe := &lockProbe{mode: lock}
		n, err := core.NewNode(core.Config{
			Addr: 1, Net: net, Bootstrap: 1,
			Stack: []core.Factory{func() core.Agent { return probe }},
		})
		if err != nil {
			b.Fatal(err)
		}
		sched.RunFor(time.Millisecond)
		const workers = 8
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N / workers
		if per == 0 {
			per = 1
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					probe.fire(n)
				}
			}()
		}
		wg.Wait()
	}
	b.Run("read", func(b *testing.B) { run(b, core.Read) })
	b.Run("write", func(b *testing.B) { run(b, core.Write) })
}

// lockProbe is a minimal agent with one data transition whose lock mode is
// configurable; fire dispatches it directly, bypassing the node queue to
// exercise true lock concurrency.
type lockProbe struct {
	mode core.LockMode
	spin int
}

func (p *lockProbe) ProtocolName() string { return "lockprobe" }

func (p *lockProbe) Define(d *core.Def) {
	d.States("up")
	d.Addressing(core.IPAddressing)
	d.UDPTransport("U")
	d.OnAPI(overlay.APIInit, core.Any, core.Write, func(ctx *core.Context, call *core.APICall) {
		ctx.StateChange("up")
	})
	d.OnAPI(overlay.APIDowncallExt, core.Any, p.mode, func(ctx *core.Context, call *core.APICall) {
		// Simulated read-only data work.
		s := 0
		for i := 0; i < 2000; i++ {
			s += i
		}
		_ = s
	})
}

func (p *lockProbe) fire(n *core.Node) {
	n.Downcall(0, nil)
}

// BenchmarkAblationTransportPriority measures head-of-line blocking: time
// for a control frame to cross a congested link when sharing the bulk
// transport vs using a dedicated instance (§3.1's multiple transports).
func BenchmarkAblationTransportPriority(b *testing.B) {
	run := func(b *testing.B, dedicated bool) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			g := topology.NewGraph()
			r1, r2 := g.AddRouter(), g.AddRouter()
			g.AddLink(r1, r2, 5*time.Millisecond, 1_000_000, 20*1500)
			g.AttachClient(1, r1, topology.DefaultAccess)
			g.AttachClient(2, r2, topology.DefaultAccess)
			sched := simnet.NewScheduler(int64(i))
			net := simnet.New(sched, g, simnet.Config{})
			ep1, _ := net.Endpoint(1)
			ep2, _ := net.Endpoint(2)
			m1 := transport.NewMux(ep1, net)
			m2 := transport.NewMux(ep2, net)
			bulk := m1.AddTCP("bulk")
			ctrl := bulk
			m2.AddTCP("bulk")
			if dedicated {
				ctrl = m1.AddTCP("ctrl")
				m2.AddTCP("ctrl")
			}
			var at time.Duration = -1
			m2.SetRecv(func(name string, src overlay.Address, frame []byte) {
				if len(frame) == 6 && at < 0 {
					at = sched.Elapsed()
				}
			})
			_ = bulk.Send(2, make([]byte, 400_000))
			_ = ctrl.Send(2, []byte("urgent"))
			sched.RunFor(30 * time.Second)
			if at > 0 {
				total += at
			}
		}
		b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "ctrl_latency_ms")
	}
	b.Run("shared", func(b *testing.B) { run(b, false) })
	b.Run("dedicated", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationCacheLifetime sweeps the Pastry location-cache policy
// (generalizing Figure 12): of 20 routes to one key, the cache misses, each
// of which routes through the DHT and asks for a fill, and the direct sends.
func BenchmarkAblationCacheLifetime(b *testing.B) {
	const routes = 20
	for _, c := range []struct {
		name    string
		cacheMs int32
	}{
		{"flush_2s", 2000},
		{"forever", 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			var fills, direct uint64
			for i := 0; i < b.N; i++ {
				cl, err := harness.NewCluster(harness.ClusterConfig{Nodes: 16, Routers: 100, Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				stack := []core.Factory{func() core.Agent { return &pastry.Agent{CacheMs: c.cacheMs} }}
				if err := cl.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
					b.Fatal(err)
				}
				cl.RunFor(60 * time.Second)
				src := cl.Nodes[cl.Addrs[3]]
				dest := overlay.Key(0x77777777)
				for k := 0; k < routes; k++ {
					_ = src.Route(dest, make([]byte, 100), 1, overlay.PriorityDefault)
					cl.RunFor(500 * time.Millisecond)
				}
				// A miss meets a forward upcall at the source; a hit does not.
				missed := src.Instance("pastry").Counters().Forwarded
				fills += missed
				direct += routes - missed
				cl.StopAll()
			}
			b.ReportMetric(float64(fills)/float64(b.N), "cache_fills")
			b.ReportMetric(float64(direct)/float64(b.N), "direct_sends")
		})
	}
}

// BenchmarkAblationFailureDetector measures detection latency for (g, f)
// failure-detector settings (§3.1's configurable parameters).
func BenchmarkAblationFailureDetector(b *testing.B) {
	for _, c := range []struct {
		name string
		g, f time.Duration
	}{
		{"g2_f6", 2 * time.Second, 6 * time.Second},
		{"g5_f20", 5 * time.Second, 20 * time.Second},
	} {
		b.Run(c.name, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				cl, err := harness.NewCluster(harness.ClusterConfig{
					Nodes: 8, Routers: 80, Seed: int64(i),
					HeartbeatAfter: c.g, FailAfter: c.f,
				})
				if err != nil {
					b.Fatal(err)
				}
				stack := []core.Factory{chord.New()}
				if err := cl.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
					b.Fatal(err)
				}
				cl.RunFor(45 * time.Second)
				victim := cl.Addrs[3]
				_ = cl.Net.SetDown(victim, true)
				start := cl.Sched.Elapsed()
				// Wait until someone detects the failure.
				for cl.Sched.Elapsed()-start < 2*c.f+10*time.Second {
					cl.RunFor(time.Second)
					detected := false
					for _, a := range cl.Addrs {
						if a == victim {
							continue
						}
						if cl.Nodes[a].Instance("chord").Counters().Failures > 0 {
							detected = true
							break
						}
					}
					if detected {
						break
					}
				}
				total += cl.Sched.Elapsed() - start
				cl.StopAll()
			}
			b.ReportMetric(total.Seconds()/float64(b.N), "detect_s")
		})
	}
}

// BenchmarkSweepSharedPrefix is the checkpoint/fork acceptance benchmark: a
// K=4 churn-rate sweep whose variants share one settled prefix, against the
// same four variants executed cold. Both produce byte-identical per-variant
// reports (TestSweepMatchesColdRuns gates that); the ns/op gap is the
// prefix re-simulation the fork saves. The sweep run also reports the
// measured speedup as a custom metric.
func BenchmarkSweepSharedPrefix(b *testing.B) {
	mkSweep := func() *scenario.Sweep {
		return &scenario.Sweep{
			Name: "bench-sweep",
			Base: scenario.Scenario{
				Name:     "bench-sweep",
				Seed:     2004,
				Nodes:    40,
				Routers:  160,
				Protocol: "chord",
				Join:     scenario.JoinSpec{Process: "staggered", Window: scenario.Duration(15 * time.Second)},
				Settle:   scenario.Duration(90 * time.Second),
				Drain:    scenario.Duration(5 * time.Second),
				Phases: []scenario.Phase{
					{
						Name:     "churn",
						Duration: scenario.Duration(20 * time.Second),
						Churn:    &scenario.Churn{Model: "poisson", Rate: 0.1, Downtime: scenario.Duration(10 * time.Second)},
						Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 2},
					},
				},
			},
			Variants: []scenario.SweepVariant{
				{Name: "r05", ChurnRate: 0.05},
				{Name: "r10", ChurnRate: 0.10},
				{Name: "r20", ChurnRate: 0.20},
				{Name: "r40", ChurnRate: 0.40},
			},
		}
	}
	b.Run("fork4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := harness.RunSweep(mkSweep(), 2)
			if err != nil {
				b.Fatal(err)
			}
			var branches time.Duration
			for _, vr := range rep.Results {
				if !vr.SharedPrefix {
					b.Fatal("bench sweep variant ran cold")
				}
				branches += vr.BranchWall
			}
			cold := 4*rep.PrefixWall + branches
			if rep.TotalWall > 0 {
				b.ReportMetric(float64(cold)/float64(rep.TotalWall), "speedup_vs_cold")
			}
		}
	})
	b.Run("cold4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vs, err := mkSweep().Resolve()
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range vs {
				if _, err := harness.RunScenarioExec(v.Scenario, harness.ExecOptions{Shards: 2}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
