package harness

import (
	"strings"
	"sync"
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/repo"
	"macedon/internal/scenario"
)

// TestObsShardInvariance is the obs plane's determinism contract: the
// exposition, the sampled event log, and the merged span records must be
// byte-identical at any shard count — and turning obs on must not perturb
// the legacy trace or report by a single byte.
func TestObsShardInvariance(t *testing.T) {
	opts := ObsOptions{Enabled: true, TraceSample: 2}
	base, err := runSim(testScenario(), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.Obs == nil {
		t.Fatal("obs enabled but report carries no obs section")
	}
	if base.Obs.Exposition == "" || len(base.Obs.Events) == 0 || len(base.Obs.Spans) == 0 {
		t.Fatalf("obs section incomplete: exposition=%d bytes, %d events, %d spans",
			len(base.Obs.Exposition), len(base.Obs.Events), len(base.Obs.Spans))
	}
	for _, shards := range []int{2, 4} {
		got, err := runSim(testScenario(), shards, opts)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.ObsText() != base.ObsText() {
			t.Fatalf("shards=%d: obs output diverges from shards=1 at %s", shards, repo.FirstDiff(base.ObsText(), got.ObsText()))
		}
		if got.TraceText() != base.TraceText() || got.String() != base.String() {
			t.Fatalf("shards=%d: legacy output drifted under obs", shards)
		}
		if got.VerboseString() != base.VerboseString() {
			t.Fatalf("shards=%d: verbose report drifted:\n--- shards=1\n%s\n--- shards=%d\n%s",
				shards, base.VerboseString(), shards, got.VerboseString())
		}
	}

	// Obs off must reproduce the exact pre-obs run.
	plain, err := runSim(testScenario(), 1, ObsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.TraceText() != base.TraceText() || plain.String() != base.String() {
		t.Fatal("enabling obs changed the legacy trace or report")
	}
	if plain.Obs != nil || plain.Phases[0].Obs != nil {
		t.Fatal("obs disabled but report carries obs sections")
	}
}

// TestSchedFamiliesShardInvariant pins the scheduler-telemetry contract:
// every macedon_sched_* family must be present in the merged exposition,
// carry plausible values, and be byte-identical across shard counts — the
// per-shard counters (heap depth, barrier stalls, pool traffic) sum to
// totals that depend only on the executed schedule, never on how the actors
// were partitioned. The per-phase time series rides the same contract.
func TestSchedFamiliesShardInvariant(t *testing.T) {
	opts := ObsOptions{Enabled: true, SeriesInterval: 20 * time.Second}
	schedLines := func(expo string) string {
		var b strings.Builder
		for _, line := range strings.Split(expo, "\n") {
			if strings.Contains(line, "macedon_sched_") {
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
		return b.String()
	}
	var base string
	var baseRep *scenario.Report
	for _, shards := range []int{1, 2, 4} {
		rep, err := runSim(testScenario(), shards, opts)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := schedLines(rep.Obs.Exposition)
		if base == "" {
			base, baseRep = got, rep
			for _, fam := range []string{
				"macedon_sched_events_total",
				"macedon_sched_heap_depth",
				"macedon_sched_barrier_stall_ns_total",
				"macedon_sched_window_utilization",
				"macedon_sched_pool_gets_total",
				"macedon_sched_pool_recycled_total",
			} {
				if !strings.Contains(got, fam) {
					t.Errorf("merged exposition missing %s:\n%s", fam, got)
				}
			}
			// The recycled/pinned split depends on whether a checkpoint was
			// taken; only their sum is exported.
			if strings.Contains(got, "macedon_sched_pool_pinned_total") {
				t.Errorf("merged exposition still splits out pool_pinned:\n%s", got)
			}
			continue
		}
		if got != base {
			t.Fatalf("shards=%d: obs output diverges from shards=1 at %s", shards, repo.FirstDiff(base, got))
		}
		for pi, p := range rep.Phases {
			bs, gs := baseRep.Phases[pi].Obs.Series, p.Obs.Series
			if len(gs.Points) == 0 {
				t.Fatalf("shards=%d: phase %d has no series points", shards, pi)
			}
			if len(gs.Points) != len(bs.Points) {
				t.Fatalf("shards=%d: phase %d series has %d points, shards=1 has %d",
					shards, pi, len(gs.Points), len(bs.Points))
			}
			for i := range gs.Points {
				if gs.Points[i].At != bs.Points[i].At {
					t.Fatalf("shards=%d: phase %d point %d at %v, shards=1 at %v",
						shards, pi, i, gs.Points[i].At, bs.Points[i].At)
				}
				for j := range gs.Points[i].Values {
					if gs.Points[i].Values[j] != bs.Points[i].Values[j] {
						t.Fatalf("shards=%d: phase %d point %d column %s: %v vs %v",
							shards, pi, i, gs.Columns[j], gs.Points[i].Values[j], bs.Points[i].Values[j])
					}
				}
			}
		}
	}
}

// TestObsPhaseHistograms sanity-checks the per-phase distribution columns:
// delivered lookups must land in the latency and hop histograms of the
// phase that issued them.
func TestObsPhaseHistograms(t *testing.T) {
	rep, err := runSim(testScenario(), 1, ObsOptions{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range rep.Phases {
		if p.Obs == nil {
			t.Fatalf("phase %d: no obs snapshot", pi)
		}
		if p.OpsDelivered > 0 {
			if p.Obs.Latency.Count != uint64(p.OpsDelivered) {
				t.Errorf("phase %d: latency hist count=%d, delivered=%d", pi, p.Obs.Latency.Count, p.OpsDelivered)
			}
			if p.Obs.Hops.Count == 0 {
				t.Errorf("phase %d: delivered ops but empty hop histogram", pi)
			}
			if p.Obs.Latency.Sum <= 0 {
				t.Errorf("phase %d: latency sum = %v", pi, p.Obs.Latency.Sum)
			}
		}
	}
	if !strings.Contains(rep.Obs.Exposition, "macedon_ops_total{kind=\"lookup\"}") {
		t.Error("exposition missing macedon_ops_total{kind=\"lookup\"}")
	}
	if !strings.Contains(rep.Obs.Exposition, "macedon_engine_msgs_sent_total") {
		t.Error("exposition missing engine counter mirror")
	}
}

// TestCountersConcurrentSnapshots is the satellite race audit: engine
// counters must be snapshottable from control goroutines while a sharded
// run executes — exactly what live agents do when serving /metrics. Run
// under -race this catches any non-atomic counter increment.
func TestCountersConcurrentSnapshots(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 8, Routers: 40, Seed: 11, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	stack, err := scenario.ResolveStack("chord", nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*core.Node, 0, 8)
	for i := 0; i < 8; i++ {
		n, err := c.Spawn(i, stack)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, n := range nodes {
				_ = n.Counters()
			}
		}
	}()
	c.RunFor(60 * time.Second)
	close(stop)
	wg.Wait()
	var total uint64
	for _, n := range nodes {
		total += n.Counters().MsgsSent
	}
	if total == 0 {
		t.Fatal("no protocol traffic recorded")
	}
}
