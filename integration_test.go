// Cross-cutting integration tests: full stacks under churn and loss, the
// conditions §1 names as the hard part of building networked systems.
package main

import (
	"path/filepath"
	"testing"
	"time"

	"macedon/internal/check"
	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/chord"
	"macedon/internal/overlays/pastry"
	"macedon/internal/overlays/scribe"
	"macedon/internal/repo"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
)

// TestChordUnderChurn kills a quarter of the ring in waves and checks that
// routing still delivers at the surviving owner afterwards.
func TestChordUnderChurn(t *testing.T) {
	c, err := harness.NewCluster(harness.ClusterConfig{
		Nodes: 20, Routers: 120, Seed: 2718,
		HeartbeatAfter: 2 * time.Second, FailAfter: 8 * time.Second, Sweep: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	stack := []core.Factory{chord.New()}
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(90 * time.Second)

	victims := []overlay.Address{c.Addrs[4], c.Addrs[9], c.Addrs[14], c.Addrs[19], c.Addrs[7]}
	for i, v := range victims {
		_ = c.Net.SetDown(v, true)
		c.Nodes[v].Stop()
		c.RunFor(time.Duration(10+5*i) * time.Second)
	}
	c.RunFor(2 * time.Minute)

	var live []overlay.Address
	for _, a := range c.Addrs {
		dead := false
		for _, v := range victims {
			if a == v {
				dead = true
			}
		}
		if !dead {
			live = append(live, a)
		}
	}
	oracle := check.NewChordOracle(live)
	delivered := map[overlay.Key]overlay.Address{}
	for _, a := range live {
		addr := a
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, src overlay.Address) {
				delivered[overlay.Key(typ)] = addr
			},
		})
	}
	keys := []overlay.Key{0x01020304, 0x55555555, 0x7eadbeef, 0x31415926}
	for _, k := range keys {
		if err := c.Nodes[live[1]].Route(k, []byte("post-churn"), int32(k), overlay.PriorityDefault); err != nil {
			t.Fatal(err)
		}
	}
	c.RunFor(15 * time.Second)
	for _, k := range keys {
		got, ok := delivered[k]
		if !ok {
			t.Errorf("key %v undelivered after churn", k)
			continue
		}
		if want := oracle.Successor(k); got != want {
			t.Errorf("key %v at %v, want %v", k, got, want)
		}
	}
}

// TestScribeTreeSurvivesForwarderFailure kills an interior forwarder and
// expects the soft-state refresh to regraft its orphans. A fan-out of two
// forces interior forwarders, and orphans can only regraft through a
// push-down redirect once they drop their silent parent.
func TestScribeTreeSurvivesForwarderFailure(t *testing.T) {
	c, err := harness.NewCluster(harness.ClusterConfig{
		Nodes: 16, Routers: 100, Seed: 31415,
		HeartbeatAfter: 2 * time.Second, FailAfter: 8 * time.Second, Sweep: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	stack := []core.Factory{
		pastry.New(),
		func() core.Agent { return &scribe.Agent{RefreshMs: 5000, MaxChildren: 2} },
	}
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(90 * time.Second)
	group := overlay.HashString("durable-session")
	got := map[overlay.Address]int{}
	for _, a := range c.Addrs[1:] {
		addr := a
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, src overlay.Address) { got[addr]++ },
		})
		_ = c.Nodes[a].Join(group)
	}
	c.RunFor(30 * time.Second)

	// Find and kill an interior forwarder (a non-root node with children).
	var victim overlay.Address
	for _, a := range c.Addrs[1:] {
		sc := core.KeyRead(c.Nodes[a].Instance("scribe").Agent().(*scribe.Agent).Groups, group)
		if len(sc.Children.Addrs) > 0 && sc.Parent != overlay.NilAddress {
			victim = a
			break
		}
	}
	if victim == overlay.NilAddress {
		t.Fatal("no interior forwarder under a fan-out of two")
	}
	_ = c.Net.SetDown(victim, true)
	c.Nodes[victim].Stop()
	c.RunFor(45 * time.Second) // refreshes regraft orphans

	for k := range got {
		delete(got, k)
	}
	const packets = 5
	for i := 0; i < packets; i++ {
		_ = c.Nodes[c.Addrs[0]].Multicast(group, []byte("after"), 9, overlay.PriorityDefault)
		c.RunFor(2 * time.Second)
	}
	c.RunFor(20 * time.Second)
	missing := 0
	for _, a := range c.Addrs[1:] {
		if a == victim {
			continue
		}
		if got[a] < packets {
			missing++
		}
	}
	if missing > 1 { // one straggler mid-regraft is tolerable
		t.Fatalf("%d members lost the stream after forwarder failure", missing)
	}
}

// TestScribeLookupsReachTheApplication: Scribe passes a lookup through to
// Pastry's route, so Pastry, the layer below the top, forwards and delivers
// it; the payload must still reach the application, and the application
// must still see its forwards. The pastry-churn scenario run over the
// scribe stack must deliver at least 95 % of the lookups it issues (a
// lookup whose sender is down is skipped, not issued) over more than one
// hop on average, and print the same report at -shards=1 and -shards=4.
func TestScribeLookupsReachTheApplication(t *testing.T) {
	s, err := scenario.Load(filepath.Join("examples", "scenarios", "pastry-churn.json"))
	if err != nil {
		t.Fatal(err)
	}
	s.Protocol = "scribe"
	var first string
	for _, shards := range []int{1, 4} {
		rep, err := harness.RunScenarioExec(s, harness.ExecOptions{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		sent, delivered, forwarded := 0, 0, 0
		for _, p := range rep.Phases {
			sent, delivered, forwarded = sent+p.OpsSent, delivered+p.OpsDelivered, forwarded+p.OpsForwarded
		}
		if sent == 0 || delivered*100 < sent*95 || forwarded == 0 {
			t.Fatalf("shards=%d: %d of %d lookups delivered (want at least 95 %%), %d forwards:\n%s", shards, delivered, sent, forwarded, rep)
		}
		if first == "" {
			first = rep.String()
		} else if rep.String() != first {
			t.Fatalf("shards=%d: report diverges from shards=1 at %s", shards, repo.FirstDiff(first, rep.String()))
		}
	}
}

// TestChordRoutingUnderPacketLoss checks that UDP control loss slows but
// does not break ring formation (reliable transports carry the data).
func TestChordRoutingUnderPacketLoss(t *testing.T) {
	c, err := harness.NewCluster(harness.ClusterConfig{
		Nodes: 10, Routers: 100, Seed: 161803,
		Sim: simnet.Config{LossRate: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	stack := []core.Factory{chord.New()}
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(3 * time.Minute)
	var got bool
	dest := overlay.Key(0x42424242)
	oracle := check.NewChordOracle(c.Addrs)
	owner := oracle.Successor(dest)
	c.Nodes[owner].RegisterHandlers(core.Handlers{
		Deliver: func([]byte, int32, overlay.Address) { got = true },
	})
	// Retry the route a few times: individual datagrams may die, the
	// reliable DATA transport must not.
	for i := 0; i < 3 && !got; i++ {
		_ = c.Nodes[c.Addrs[2]].Route(dest, []byte("lossy"), 1, overlay.PriorityDefault)
		c.RunFor(10 * time.Second)
	}
	if !got {
		t.Fatal("routing failed under 5% per-hop loss")
	}
}

// TestDeterministicExperiments re-runs a reduced Figure 10 sweep and
// requires byte-identical correct-finger curves: the reproducibility claim
// of the harness, on the path the paper's figures run.
func TestDeterministicExperiments(t *testing.T) {
	run := func() []string {
		sw, err := scenario.LoadSweep(filepath.Join("examples", "figures", "fig10.json"))
		if err != nil {
			t.Fatal(err)
		}
		sw.Base.Nodes, sw.Base.Seed = 25, 77
		sw.Base.Join.Window = scenario.Duration(10 * time.Second)
		sw.Base.Settle = scenario.Duration(10 * time.Second)
		sw.Base.Phases[0].Duration = scenario.Duration(30 * time.Second)
		sw.Variants = sw.Variants[:1]
		rep, err := harness.RunSweepExec(sw, 2, harness.ObsOptions{Enabled: true, TraceSample: 1 << 30, SeriesInterval: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		series := rep.Results[0].Report.Phases[0].Obs.Series
		if n := len(series.Columns); n == 0 || series.Columns[n-1] != "fingers_ok" {
			t.Fatalf("series columns %v lack fingers_ok", series.Columns)
		}
		return series.Lines()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at sample %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}
