// Scale acceptance: large RandTree churn scenarios must run to completion
// on the sharded event loop, link failures at the paper's population must
// cost no route rebuild, and the paper's 1,000 nodes over 20,000 routers
// must stay within a heap budget. The churn runs take minutes of wall clock, so
// all of it is gated behind MACEDON_SCALE=1 (the CI scale lane runs them in
// a dedicated job; `go test ./...` skips them).
//
// Every population size, churn knob, and pass/fail threshold lives in the
// scaleCases table below — the single source the CI job and local
// MACEDON_SCALE=1 runs both read, so the two can't drift.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/scenario"
	"macedon/internal/topology"
)

// scaleCase pins one scale-acceptance scenario: the population, the churn
// storm it must survive, and the acceptance thresholds.
type scaleCase struct {
	name       string
	nodes      int
	routers    int
	joinWindow time.Duration
	settle     time.Duration
	churnFor   time.Duration
	churnRate  float64 // kills per second (poisson)
	downtime   time.Duration
	drain      time.Duration
	minLive    int // population floor after the churn phase
	peakHeapMB int // measured peak HeapInuse; a run 25 % above it fails
}

// scaleCases is THE one place scale thresholds live. The CI perf job runs
// `-run Scale` against this table and local MACEDON_SCALE=1 runs read the
// same rows, so a threshold bump lands in both or neither.
var scaleCases = map[string]scaleCase{
	"10k": {
		name:       "randtree-10k-churn",
		nodes:      10_000,
		routers:    2_500,
		joinWindow: 20 * time.Second,
		settle:     30 * time.Second,
		churnFor:   60 * time.Second,
		churnRate:  2, // ~120 kills over the phase
		downtime:   20 * time.Second,
		drain:      10 * time.Second,
		minLive:    9_800,
	},
	// The 100k trajectory point: five times the population, routed through
	// the access-link decomposition (trees only toward core routers).
	"50k": {
		name:       "randtree-50k-churn",
		nodes:      50_000,
		routers:    5_000,
		joinWindow: 20 * time.Second,
		settle:     20 * time.Second,
		churnFor:   30 * time.Second,
		churnRate:  2, // ~60 kills over the phase
		downtime:   15 * time.Second,
		drain:      10 * time.Second,
		minLive:    49_800,
	},
	// The failure-injection probe of docs/simnet.md: the paper's population
	// of generated Chord, no churn, four access pipes failing and healing
	// under a lookup workload (TestScaleLinkFlapChord holds the schedule).
	"flap": {
		name:       "chord-1k-linkflap",
		nodes:      1_000,
		routers:    3_000,
		joinWindow: 30 * time.Second,
		settle:     30 * time.Second,
		churnFor:   30 * time.Second, // the flap phase
		drain:      5 * time.Second,
	},
	// The paper's regime: the same population over the paper's
	// 20,000-router INET, under churn. Routing-bound: every tree is
	// 21,000 vertices, and the first route miss builds one toward each
	// attachment router on all cores (TestScalePaperRegimeChord holds the
	// schedule). Peak HeapInuse measured at 134–139 MB over five runs (2 vCPU,
	// GOMAXPROCS=2); 412–441 MB before trees kept only prev.
	"paper": {
		name:       "chord-1k-paper",
		nodes:      1_000,
		routers:    20_000,
		joinWindow: 30 * time.Second,
		settle:     30 * time.Second,
		churnFor:   30 * time.Second,
		churnRate:  0.1, // 3 kills expected over the phase; seed 2004 draws one
		downtime:   15 * time.Second,
		drain:      5 * time.Second,
		peakHeapMB: 139,
	},
}

// runScaleCase executes one row of the table and enforces its thresholds.
func runScaleCase(t *testing.T, c scaleCase) {
	if os.Getenv("MACEDON_SCALE") == "" {
		t.Skipf("set MACEDON_SCALE=1 to run the %d-node scenario", c.nodes)
	}
	s := &scenario.Scenario{
		Name:     c.name,
		Seed:     2004,
		Nodes:    c.nodes,
		Routers:  c.routers,
		Protocol: "randtree",
		Join:     scenario.JoinSpec{Process: "staggered", Window: scenario.Duration(c.joinWindow)},
		Settle:   scenario.Duration(c.settle),
		Drain:    scenario.Duration(c.drain),
		Phases: []scenario.Phase{
			{
				Name:     "churn",
				Duration: scenario.Duration(c.churnFor),
				Churn: &scenario.Churn{
					Model:    "poisson",
					Rate:     c.churnRate,
					Downtime: scenario.Duration(c.downtime),
				},
			},
		},
	}
	shards := runtime.GOMAXPROCS(0)
	start := time.Now()
	rep, err := harness.RunScenarioExec(s, harness.ExecOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d-node churn: %d events, %d kills+revives traced, wall=%s shards=%d",
		c.nodes, rep.EventsRun, len(rep.Trace), time.Since(start).Round(time.Second), shards)
	last := rep.Phases[len(rep.Phases)-1]
	if last.LiveNodes < c.minLive {
		t.Fatalf("population collapsed: live=%d (floor %d)", last.LiveNodes, c.minLive)
	}
	if rep.Final.Delivered == 0 {
		t.Fatalf("no traffic delivered at %d nodes", c.nodes)
	}
}

// chordCluster builds a row's topology and starts generated Chord on it:
// the nodes join over the join window, the settle runs, and 5 lookups/s of
// 64 B are scheduled from live nodes for the phase that follows. The caller
// owns StopAll.
func chordCluster(t *testing.T, row scaleCase) (*harness.Cluster, []core.Factory) {
	t.Helper()
	c, err := harness.NewCluster(harness.ClusterConfig{Nodes: row.nodes, Routers: row.routers, Seed: 2004})
	if err != nil {
		t.Fatal(err)
	}
	stack, err := harness.StackWithParams("chord", nil)
	if err != nil {
		c.StopAll()
		t.Fatal(err)
	}
	for i := range c.Addrs {
		c.SpawnAt(i, stack, row.joinWindow*time.Duration(i)/time.Duration(row.nodes))
	}
	c.RunFor(row.settle)
	for i := 0; i < 5*int(row.churnFor/time.Second); i++ {
		src := c.Addrs[(i*7919+3)%row.nodes]
		c.Sched.After(time.Duration(i)*time.Second/5, func() {
			if n := c.Nodes[src]; n != nil {
				_ = n.Route(overlay.HashString(fmt.Sprint(row.name, "-lookup-", i)), make([]byte, 64), 0, overlay.PriorityDefault)
			}
		})
	}
	return c, stack
}

// TestScaleLinkFlapChord runs the "flap" row: the nodes join over the join
// window, then 5 lookups/s for the length of the phase while four access
// pipes fail and heal, then the drain. It drives the cluster itself rather
// than a scenario because it asserts on the forwarding oracle: with a tree
// toward every attachment router already cached when the flaps begin, any
// tree built afterwards is one an access-link event threw away.
func TestScaleLinkFlapChord(t *testing.T) {
	row := scaleCases["flap"]
	if os.Getenv("MACEDON_SCALE") == "" {
		t.Skipf("set MACEDON_SCALE=1 to run the %d-node link-flap probe", row.nodes)
	}
	start := time.Now()
	c, _ := chordCluster(t, row)
	defer c.StopAll()

	live := c.Net.LiveRoutes()
	for _, a := range c.Addrs[1:] {
		_, _ = live.ClientLatency(c.Addrs[0], a)
		_, _ = live.ClientLatency(a, c.Addrs[0])
	}
	trees := live.CachedTrees()

	for _, f := range []struct {
		node     int
		down, up time.Duration
	}{{3, 2, 11}, {7, 5, 17}, {11, 8, 20}, {19, 14, 23}} {
		addr := c.Addrs[f.node]
		c.Sched.After(f.down*time.Second, func() { _ = c.Net.SetNodeAccessDown(addr, true) })
		c.Sched.After(f.up*time.Second, func() { _ = c.Net.SetNodeAccessDown(addr, false) })
	}
	c.RunFor(row.churnFor + row.drain)

	st := c.Net.Stats()
	t.Logf("%d-node link flaps: %d simulator events, %d route trees, noroute=%d linkdown=%d, wall=%s",
		row.nodes, c.Sched.Executed(), live.CachedTrees(), st.NoRouteDrops, st.LinkDownDrops,
		time.Since(start).Round(10*time.Millisecond))
	if st.NoRouteDrops == 0 {
		t.Fatal("no datagram met a failed access pipe: the flaps were not exercised")
	}
	if got := c.Net.LiveRoutes().CachedTrees(); got != trees {
		t.Fatalf("the flaps rebuilt routes: %d trees cached, %d before the first failure", got, trees)
	}
}

// TestScalePaperRegimeChord runs the "paper" row: the nodes join over the
// join window, then one phase of Poisson kills (victims never the
// bootstrap, each revived after the downtime) under 5 lookups/s, then the
// drain. It fails if the forwarding oracle holds any tree but the one
// toward each attachment router, or if peak HeapInuse, sampled every 20 ms
// of wall clock, exceeds the row's measured value by more than 25 %.
func TestScalePaperRegimeChord(t *testing.T) {
	row := scaleCases["paper"]
	if os.Getenv("MACEDON_SCALE") == "" {
		t.Skipf("set MACEDON_SCALE=1 to run the %d-node, %d-router probe", row.nodes, row.routers)
	}
	start := time.Now()
	stopSampling := samplePeakHeap()
	c, stack := chordCluster(t, row)
	defer c.StopAll()

	rng := rand.New(rand.NewSource(2004))
	interval := func() time.Duration {
		return time.Duration(rng.ExpFloat64() / row.churnRate * float64(time.Second))
	}
	killed := map[int]bool{}
	for at := interval(); at < row.churnFor; at += interval() {
		i := 1 + rng.Intn(row.nodes-1)
		if killed[i] {
			continue
		}
		killed[i] = true
		c.Sched.After(at, func() { c.Kill(i) })
		c.Sched.After(at+row.downtime, func() {
			if _, err := c.Revive(i, stack); err != nil {
				t.Error(err)
			}
		})
	}
	c.RunFor(row.churnFor + row.drain)
	peak := stopSampling()

	routers := map[topology.RouterID]bool{}
	for _, a := range c.Addrs {
		up, _, _ := c.Graph.AccessLinks(a)
		routers[c.Graph.Link(up).To] = true
	}
	trees := c.Net.LiveRoutes().CachedTrees()
	t.Logf("%d nodes over %d routers: %d simulator events, %d kills, %d route trees (%d attachment routers), peak heap in use %d MB, wall=%s",
		row.nodes, row.routers, c.Sched.Executed(), len(killed), trees, len(routers), peak>>20,
		time.Since(start).Round(10*time.Millisecond))
	if trees != len(routers) {
		t.Errorf("%d route trees cached, want one per attachment router: %d", trees, len(routers))
	}
	if limit := uint64(row.peakHeapMB) << 20 * 5 / 4; peak > limit {
		t.Errorf("peak heap in use %d MB, above %d MB (the measured %d MB + 25 %%)", peak>>20, limit>>20, row.peakHeapMB)
	}
}

// samplePeakHeap polls HeapInuse every 20 ms until the returned function is
// called, which stops the poller and returns the largest value it read.
func samplePeakHeap() func() uint64 {
	done, result := make(chan struct{}), make(chan uint64)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		var peak uint64
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
			select {
			case <-done:
				result <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-result
	}
}

func TestScale10kRandTreeChurn(t *testing.T) {
	runScaleCase(t, scaleCases["10k"])
}

// TestScale50kRandTreeChurn is the 100k-trajectory acceptance: a 50,000-node
// population under churn, latency-partitioned, completing on the pooled
// event hot path.
func TestScale50kRandTreeChurn(t *testing.T) {
	runScaleCase(t, scaleCases["50k"])
}
