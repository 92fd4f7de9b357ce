package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"macedon/internal/repo"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
)

// testScenario is the canonical shape of the acceptance criterion: Poisson
// churn, a mid-run network partition, and a phased lookup workload — small
// enough for CI.
func testScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:     "churn-partition-lookups",
		Seed:     2004,
		Nodes:    12,
		Routers:  80,
		Protocol: "chord",
		Join:     scenario.JoinSpec{Process: "staggered", Window: scenario.Duration(10 * time.Second)},
		Settle:   scenario.Duration(60 * time.Second),
		Drain:    scenario.Duration(15 * time.Second),
		Phases: []scenario.Phase{
			{
				Name:     "baseline",
				Duration: scenario.Duration(30 * time.Second),
				Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 1},
			},
			{
				Name:     "churn",
				Duration: scenario.Duration(40 * time.Second),
				Churn: &scenario.Churn{
					Model:    "poisson",
					Rate:     0.1,
					Downtime: scenario.Duration(15 * time.Second),
				},
				Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 1},
			},
			{
				Name:     "partition",
				Duration: scenario.Duration(30 * time.Second),
				Events: []scenario.Event{
					{At: scenario.Duration(5 * time.Second), Kind: scenario.EvPartition, Fraction: 0.33},
					{At: scenario.Duration(20 * time.Second), Kind: scenario.EvHeal},
				},
				Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 1},
			},
		},
	}
}

// runSim is the tests' one spelling of "run this scenario on the emulator".
func runSim(s *scenario.Scenario, shards int, o ObsOptions) (*scenario.Report, error) {
	return RunScenarioExec(s, ExecOptions{Shards: shards, Obs: o})
}

// TestScenarioDeterminism runs the same scenario twice and requires
// byte-identical event traces and metric reports — the engine's core
// reproducibility guarantee.
func TestScenarioDeterminism(t *testing.T) {
	a, err := runSim(testScenario(), 1, ObsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSim(testScenario(), 1, ObsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceText() != b.TraceText() {
		t.Fatalf("traces diverge at %s", repo.FirstDiff(a.TraceText(), b.TraceText()))
	}
	if a.String() != b.String() {
		t.Fatalf("reports differ:\n--- run1\n%s\n--- run2\n%s", a, b)
	}
}

// TestScenarioShardInvariance is the sharded event loop's core guarantee:
// the shard count is an execution parameter, so 1, 2, and 4 shards must
// produce byte-identical traces and reports for the same scenario and seed.
func TestScenarioShardInvariance(t *testing.T) {
	base, err := runSim(testScenario(), 1, ObsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		got, err := runSim(testScenario(), shards, ObsOptions{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.TraceText() != base.TraceText() {
			t.Fatalf("shards=%d: traces diverge from shards=1 at %s", shards, repo.FirstDiff(base.TraceText(), got.TraceText()))
		}
		if got.String() != base.String() {
			t.Fatalf("shards=%d: reports differ:\n--- shards=1\n%s\n--- shards=%d\n%s",
				shards, base, shards, got)
		}
	}
}

// TestExecOptionsOnePlacement: "" and "latency" both name the one vertex
// placement and print the same run; any other partitioner, striped
// included, is refused before a cluster is built.
func TestExecOptionsOnePlacement(t *testing.T) {
	for _, p := range []string{"striped", "Latency", "random"} {
		_, err := RunScenarioExec(testScenario(), ExecOptions{Shards: 2, Partitioner: p})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", p)) {
			t.Fatalf("partitioner %q: err = %v, want it refused by name", p, err)
		}
	}
	base, err := runSim(testScenario(), 2, ObsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	named, err := RunScenarioExec(testScenario(), ExecOptions{Shards: 2, Partitioner: simnet.PartitionerLatency})
	if err != nil {
		t.Fatal(err)
	}
	if named.TraceText() != base.TraceText() || named.String() != base.String() {
		t.Fatal(`partitioner "latency" and "" ran differently`)
	}
}

// TestScenarioRunsTheScript checks the executed run actually contains what
// the scenario declared: kills, a partition, heals, lookups, and sane
// metrics.
func TestScenarioRunsTheScript(t *testing.T) {
	rep, err := runSim(testScenario(), 1, ObsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.TraceText()
	for _, want := range []string{"spawn node 0", "kill node", "partition [0..4)", "heal partition"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace is missing %q:\n%s", want, text)
		}
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("phases = %d", len(rep.Phases))
	}
	base := rep.Phases[0]
	if base.OpsSent == 0 {
		t.Fatal("baseline phase sent no lookups")
	}
	if base.OpsDelivered == 0 {
		t.Fatal("baseline lookups never delivered")
	}
	if base.MeanLatency <= 0 {
		t.Fatal("baseline mean latency missing")
	}
	if base.LiveNodes != 12 {
		t.Errorf("baseline live = %d, want 12", base.LiveNodes)
	}
	part := rep.Phases[2]
	if part.Net.PartitionDrops == 0 {
		t.Error("partition phase recorded no partition drops")
	}
	if rep.Final.Sent == 0 || rep.Final.Delivered == 0 {
		t.Errorf("final counters empty: %+v", rep.Final)
	}
}

// TestScenarioMulticastWorkload drives the multicast workload over
// RandTree with wave churn and revives.
func TestScenarioMulticastWorkload(t *testing.T) {
	s := &scenario.Scenario{
		Name:           "stream-massacre",
		Seed:           7,
		Nodes:          10,
		Routers:        60,
		Protocol:       "randtree",
		Settle:         scenario.Duration(30 * time.Second),
		Drain:          scenario.Duration(10 * time.Second),
		HeartbeatAfter: scenario.Duration(2 * time.Second),
		FailAfter:      scenario.Duration(6 * time.Second),
		Phases: []scenario.Phase{
			{
				Name:     "steady",
				Duration: scenario.Duration(20 * time.Second),
				Workload: &scenario.Workload{Kind: scenario.WlMulticast, Rate: 2, Size: 256},
			},
			{
				Name:     "massacre",
				Duration: scenario.Duration(40 * time.Second),
				Churn: &scenario.Churn{
					Model:    "wave",
					Kill:     2,
					Period:   scenario.Duration(15 * time.Second),
					Downtime: scenario.Duration(10 * time.Second),
				},
				Workload: &scenario.Workload{Kind: scenario.WlMulticast, Rate: 2, Size: 256},
			},
		},
	}
	rep, err := runSim(s, 1, ObsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	steady := rep.Phases[0]
	if steady.OpsSent == 0 || steady.OpsDelivered == 0 {
		t.Fatalf("steady multicast: sent=%d delivered=%d", steady.OpsSent, steady.OpsDelivered)
	}
	// A full tree delivers each packet to every other member.
	if steady.OpsDelivered < steady.OpsSent*5 {
		t.Errorf("steady multicast reached too few members: sent=%d deliveries=%d",
			steady.OpsSent, steady.OpsDelivered)
	}
	if !strings.Contains(rep.TraceText(), "revive node") {
		t.Error("wave churn with downtime produced no revives")
	}
}

// disseminationChurnScenario is the kill/revive audit every dissemination
// protocol runs: wave churn with revives under a multicast workload, then an
// explicit kill and revive of the multicast source itself (node 0), then a
// recovery phase whose deliveries prove the revived source's stream is
// accepted (a source that reuses sequence numbers after a cold restart
// trips stale dedup state in long-lived receivers).
func disseminationChurnScenario(proto string) *scenario.Scenario {
	return &scenario.Scenario{
		Name:           "dissemination-churn-" + proto,
		Seed:           41,
		Nodes:          10,
		Routers:        60,
		Protocol:       proto,
		Settle:         scenario.Duration(40 * time.Second),
		Drain:          scenario.Duration(10 * time.Second),
		HeartbeatAfter: scenario.Duration(2 * time.Second),
		FailAfter:      scenario.Duration(6 * time.Second),
		Phases: []scenario.Phase{
			{
				Name:     "steady",
				Duration: scenario.Duration(20 * time.Second),
				Workload: &scenario.Workload{Kind: scenario.WlMulticast, Rate: 2, Size: 200},
			},
			{
				Name:     "members-churn",
				Duration: scenario.Duration(30 * time.Second),
				Churn: &scenario.Churn{
					Model:    "wave",
					Kill:     2,
					Period:   scenario.Duration(10 * time.Second),
					Downtime: scenario.Duration(8 * time.Second),
				},
				Workload: &scenario.Workload{Kind: scenario.WlMulticast, Rate: 2, Size: 200},
			},
			{
				Name:     "source-outage",
				Duration: scenario.Duration(30 * time.Second),
				Events: []scenario.Event{
					{At: scenario.Duration(2 * time.Second), Kind: scenario.EvKill, Node: 0},
					{At: scenario.Duration(12 * time.Second), Kind: scenario.EvRevive, Node: 0},
				},
				Workload: &scenario.Workload{Kind: scenario.WlMulticast, Rate: 2, Size: 200},
			},
			{
				Name:     "recovered",
				Duration: scenario.Duration(30 * time.Second),
				Workload: &scenario.Workload{Kind: scenario.WlMulticast, Rate: 2, Size: 200},
			},
		},
	}
}

func auditDissemination(t *testing.T, proto string) {
	t.Helper()
	rep, err := runSim(disseminationChurnScenario(proto), 1, ObsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	steady := rep.Phases[0]
	if steady.OpsSent == 0 || steady.OpsDelivered < steady.OpsSent*5 {
		t.Fatalf("%s steady phase broken: sent=%d delivered=%d", proto, steady.OpsSent, steady.OpsDelivered)
	}
	churn := rep.Phases[1]
	if churn.OpsDelivered == 0 {
		t.Fatalf("%s delivered nothing under member churn", proto)
	}
	if !strings.Contains(rep.TraceText(), "revive node") {
		t.Fatalf("%s: churn produced no revives", proto)
	}
	rec := rep.Phases[3]
	if rec.OpsSent == 0 {
		t.Fatalf("%s recovery phase sent nothing", proto)
	}
	// The revived source must reach most of the population again: require
	// at least half the full-dissemination volume.
	if rec.OpsDelivered < rec.OpsSent*(rep.Nodes-1)/2 {
		t.Fatalf("%s: revived source not accepted: sent=%d delivered=%d (want >= %d)",
			proto, rec.OpsSent, rec.OpsDelivered, rec.OpsSent*(rep.Nodes-1)/2)
	}
}

// TestScenarioRandTreeChurnAudit audits RandTree under kill/revive churn
// plus a source restart: the audit every other dissemination protocol is
// held to.
func TestScenarioRandTreeChurnAudit(t *testing.T) { auditDissemination(t, "randtree") }

// TestScenarioNICEChurnAudit audits NICE the same way.
func TestScenarioNICEChurnAudit(t *testing.T) { auditDissemination(t, "nice") }

// TestScenarioOvercastChurnAudit audits Overcast the same way.
func TestScenarioOvercastChurnAudit(t *testing.T) { auditDissemination(t, "overcast") }

// TestScenarioReviveKeepsRunning checks kill/revive over the same address:
// the revived node must actually rejoin and the run must stay alive (the
// endpoint detach/reattach path).
func TestScenarioReviveKeepsRunning(t *testing.T) {
	s := testScenario()
	s.Phases = s.Phases[:2] // baseline + churn only
	rep, err := runSim(s, 1, ObsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.TraceText()
	if !strings.Contains(text, "kill node") {
		t.Skip("no kills under this seed")
	}
	if !strings.Contains(text, "revive node") {
		t.Error("kills never revived despite downtime")
	}
	last := rep.Phases[len(rep.Phases)-1]
	if last.LiveNodes < 10 {
		t.Errorf("population did not recover: live=%d", last.LiveNodes)
	}
}

// TestScenarioAMMOChurnAudit audits AMMO under kill/revive churn plus a
// source restart — the stale-incarnation class that bit NICE and Overcast
// (PR 2): a revived source's fresh stream restarts its sequence numbers, and
// any dedup state keyed without an incarnation stamp silently eats it.
func TestScenarioAMMOChurnAudit(t *testing.T) { auditDissemination(t, "ammo") }

// TestScenarioBulletChurnAudit runs the kill/revive audit over Bullet on the
// generated RandTree — the per-stripe state that had not had it yet.
// Bullet stripes each block down ONE tree branch and relies on the RanSub
// mesh to recover the rest, so the thresholds ask for most (not all) of
// the full-dissemination volume. The source-outage phase is the
// stale-incarnation probe that caught NICE, Overcast, and AMMO: a revived
// source restarts its block sequence at zero, and any dedup or summary
// state keyed without an incarnation stamp silently eats the fresh
// stream. The recovery phase also proves mesh slots recycle: peers that
// died during churn must be evicted, or the mesh wedges at its degree cap
// and striped blocks stop being recovered.
func TestScenarioBulletChurnAudit(t *testing.T) {
	rep, err := runSim(disseminationChurnScenario("bullet"), 1, ObsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Bullet's mesh recovery iterates incarnation sets; pin that it does so
	// deterministically (same seed ⇒ identical report), like every other
	// protocol under the engine.
	rep2, err := runSim(disseminationChurnScenario("bullet"), 1, ObsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() != rep2.String() {
		t.Fatalf("bullet scenario is nondeterministic:\n--- run1\n%s\n--- run2\n%s", rep, rep2)
	}
	n := rep.Nodes
	steady := rep.Phases[0]
	if steady.OpsSent == 0 || steady.OpsDelivered < steady.OpsSent*(n-1)/2 {
		t.Fatalf("bullet steady phase broken: sent=%d delivered=%d (want >= %d)",
			steady.OpsSent, steady.OpsDelivered, steady.OpsSent*(n-1)/2)
	}
	churn := rep.Phases[1]
	if churn.OpsDelivered == 0 {
		t.Fatal("bullet delivered nothing under member churn")
	}
	if !strings.Contains(rep.TraceText(), "revive node") {
		t.Fatal("bullet: churn produced no revives")
	}
	rec := rep.Phases[3]
	if rec.OpsSent == 0 {
		t.Fatal("bullet recovery phase sent nothing")
	}
	if rec.OpsDelivered < rec.OpsSent*(n-1)/3 {
		t.Fatalf("bullet: revived source not accepted: sent=%d delivered=%d (want >= %d)",
			rec.OpsSent, rec.OpsDelivered, rec.OpsSent*(n-1)/3)
	}
}

// TestClusterAddrsFollowTheRule: the emulator attaches node i at overlay
// address scenario.Addr(i), over an INET topology and over the site matrix
// alike — the rule the engine and the live backend use without asking.
func TestClusterAddrsFollowTheRule(t *testing.T) {
	idle := []scenario.Phase{{Name: "idle", Duration: scenario.Duration(time.Second)}}
	for _, s := range []*scenario.Scenario{
		{Name: "inet", Seed: 5, Nodes: 12, Routers: 60, Protocol: "chord", Phases: idle},
		{Name: "sites", Seed: 5, Nodes: 8, Sites: 4, Protocol: "nice", Phases: idle},
	} {
		sched, err := scenario.Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newSimRun(sched, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r.c.StopAll()
		if len(r.c.Addrs) != s.Nodes {
			t.Fatalf("%s: %d addresses for %d nodes", s.Name, len(r.c.Addrs), s.Nodes)
		}
		for i, a := range r.c.Addrs {
			if a != scenario.Addr(i) {
				t.Errorf("%s: node %d at %v, the rule says %v", s.Name, i, a, scenario.Addr(i))
			}
		}
	}
}
