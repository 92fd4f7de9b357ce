package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"macedon/internal/harness"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
)

// metricSpec names one end-to-end metric: its unit, which direction is
// better, and the share of the reference median by which it may worsen
// before the change counts as a regression. BENCHMARK.json carries the same
// table; TestBenchmarkJSONMatches keeps the two in step. README.md says how
// the bounds follow from the run-to-run and seed-to-seed spreads measured on
// a two-core virtual machine.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is what a user of the emulator pays for one experiment. Every
// workload reports all eight. Simulator-internal event counts are
// deliberately not denominators here: a change that merges two events per
// hop would lower events/s while finishing sooner. node_sec_per_s divides
// by a numerator the scenario fixes (nodes × virtual seconds).
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"node_sec_per_s", "node.s/s", "higher", 0.25},
	{"mallocs_M", "M", "lower", 0.12},
	{"alloc_MB", "MB", "lower", 0.12},
	{"peak_rss_MB", "MB", "lower", 0.25},
	{"delivery_ratio", "ratio", "higher", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// workload is one closed batch job: a scenario (or a sweep of scenarios)
// built from the seed and run to completion in a fresh process, one job at
// a time.
type workload struct {
	name    string
	why     string
	minReps int
	shards  int
	// Exactly one of scenario and sweep is set.
	scenario func(seed int64) *scenario.Scenario
	sweep    func(seed int64) *scenario.Sweep
	// needsRef marks workloads whose output is checked against one extra
	// untimed reference run (see runJob's "ref" variant).
	needsRef bool
	// lossless marks workloads on which every expected delivery must happen.
	lossless bool
}

func dur(d time.Duration) scenario.Duration { return scenario.Duration(d) }

// churnScenario is the control-plane workload: the generated Chord under
// Poisson churn with small lookups. churn_lookup and churn_lookup_sh2 run
// the same compiled schedule; only the shard count differs. The failure
// detector runs at 2 s / 6 s rather than the 5 s / 20 s default: with a 15 s
// downtime the default never notices a dead node before it returns, and the
// share of lookups lost then swings by a tenth from seed to seed. Detecting
// the failures both steadies delivery_ratio and exercises the heartbeat and
// repair paths this workload exists for.
func churnScenario(seed int64) *scenario.Scenario {
	return &scenario.Scenario{
		Name:     "churn_lookup",
		Seed:     seed,
		Nodes:    200,
		Routers:  600,
		Protocol: "genchord",
		Join:     scenario.JoinSpec{Process: "staggered", Window: dur(30 * time.Second)},
		Settle:   dur(120 * time.Second),
		Drain:    dur(10 * time.Second),

		HeartbeatAfter: dur(2 * time.Second),
		FailAfter:      dur(6 * time.Second),
		Phases: []scenario.Phase{{
			Name:     "churn",
			Duration: dur(45 * time.Second),
			Churn:    &scenario.Churn{Model: "poisson", Rate: 0.15, Downtime: dur(15 * time.Second)},
			Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 20, Size: 64},
		}},
	}
}

// streamScenario is the data-plane workload: the generated RandTree carrying
// a 1000-byte multicast stream over TCP, no churn.
func streamScenario(seed int64) *scenario.Scenario {
	return &scenario.Scenario{
		Name:     "stream_multicast",
		Seed:     seed,
		Nodes:    50,
		Routers:  150,
		Protocol: "genrandtree",
		Join:     scenario.JoinSpec{Process: "staggered", Window: dur(20 * time.Second)},
		Settle:   dur(60 * time.Second),
		Drain:    dur(10 * time.Second),
		Phases: []scenario.Phase{{
			Name:     "stream",
			Duration: dur(100 * time.Second),
			Workload: &scenario.Workload{Kind: scenario.WlMulticast, Rate: 25, Size: 1000},
		}},
	}
}

// forkSweep is the checkpoint/fork workload: four churn rates branching from
// one settled prefix.
func forkSweep(seed int64) *scenario.Sweep {
	return &scenario.Sweep{
		Name: "sweep_fork",
		Base: scenario.Scenario{
			Name:     "sweep_fork",
			Seed:     seed,
			Nodes:    200,
			Routers:  600,
			Protocol: "genchord",
			Join:     scenario.JoinSpec{Process: "staggered", Window: dur(20 * time.Second)},
			Settle:   dur(90 * time.Second),
			Drain:    dur(5 * time.Second),

			HeartbeatAfter: dur(2 * time.Second),
			FailAfter:      dur(6 * time.Second),
			Phases: []scenario.Phase{{
				Name:     "churn",
				Duration: dur(20 * time.Second),
				Churn:    &scenario.Churn{Model: "poisson", Rate: 0.1, Downtime: dur(10 * time.Second)},
				Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 10, Size: 64},
			}},
		},
		Variants: []scenario.SweepVariant{
			{Name: "r05", ChurnRate: 0.05},
			{Name: "r10", ChurnRate: 0.10},
			{Name: "r20", ChurnRate: 0.20},
			{Name: "r40", ChurnRate: 0.40},
		},
	}
}

var workloads = []*workload{
	{
		name:     "churn_lookup",
		why:      "control-plane heavy, smallest packets: timers, failure detector, core dispatch, codec and SHA-1 hashing, simnet heap; one shard",
		minReps:  5,
		shards:   1,
		scenario: churnScenario,
	},
	{
		name:     "churn_lookup_sh2",
		why:      "same compiled schedule on two shards: ~1e5 lookahead barriers; output must be byte-identical to churn_lookup",
		minReps:  7,
		shards:   2,
		scenario: churnScenario,
		needsRef: true,
	},
	{
		name:     "stream_multicast",
		why:      "data-plane heavy: TCP windows and acks, pipe serialisation, per-frame copies of 1000-byte packets; every packet must arrive",
		minReps:  5,
		shards:   1,
		scenario: streamScenario,
		lossless: true,
	},
	{
		name:     "sweep_fork",
		why:      "checkpoint/fork regime: four churn-rate variants branch from one settled prefix via statecopy and simnet snapshots",
		minReps:  5,
		shards:   1,
		sweep:    forkSweep,
		needsRef: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// baseScenario is the scenario whose configuration setup_s and the isolated
// drivers use: the scenario itself, or the sweep's base.
func (w *workload) baseScenario(seed int64) *scenario.Scenario {
	if w.sweep != nil {
		sw := w.sweep(seed)
		return &sw.Base
	}
	return w.scenario(seed)
}

// Job variants: how one child process runs the workload.
const (
	variantTimed   = "timed"   // the workload as a CLI user runs it; what the end-to-end metrics time
	variantTraced  = "traced"  // obs plane on, under the CPU profiler, with spans; feeds per-layer metrics only
	variantHand    = "hand"    // the hand-written port of the protocol, for overlays.hand_vs_gen_wall_ratio
	variantLatency = "latency" // two shards placed by the latency partitioner
	variantRef     = "ref"     // the untimed reference output the workload must reproduce
)

// jobResult is what a child process reports to the parent on stdout.
type jobResult struct {
	WallS      float64 `json:"wall_s"` // scenario.Compile to the returned report
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	// VirtualS is the virtual time simulated and NodeSec that time × nodes,
	// both summed over reports.
	VirtualS     float64 `json:"virtual_s"`
	NodeSec      float64 `json:"node_sec"`
	OpsSent      int     `json:"ops_sent"`
	OpsDelivered int     `json:"ops_delivered"`
	OpsExpected  int     `json:"ops_expected"`
	Datagrams    uint64  `json:"datagrams"`
	// PeakRSSKB is the child's own resident-set high-water mark (0 where the
	// platform does not say).
	PeakRSSKB int64 `json:"peak_rss_kb"`
	// Fingerprints hashes Report.String()+TraceText() of every report, in
	// variant order: equal fingerprints are byte-equal outputs.
	Fingerprints []string `json:"fingerprints"`
	// Sweep only.
	AllShared bool `json:"all_shared,omitempty"`

	Traced *tracedResult `json:"traced,omitempty"`
}

func fingerprint(rep *scenario.Report) string {
	sum := sha256.Sum256([]byte(rep.String() + rep.TraceText()))
	return hex.EncodeToString(sum[:])
}

// account folds one report into the result. Expected deliveries are one per
// lookup sent and one per other member for every multicast packet sent.
func (r *jobResult) account(rep *scenario.Report, s *scenario.Scenario) {
	r.VirtualS += rep.Total.Seconds()
	r.NodeSec += float64(rep.Nodes) * rep.Total.Seconds()
	r.Datagrams += rep.Final.Sent
	for i, p := range rep.Phases {
		r.OpsSent += p.OpsSent
		r.OpsDelivered += p.OpsDelivered
		per := 1
		if wl := s.Phases[i].Workload; wl != nil && wl.Kind == scenario.WlMulticast {
			per = s.Nodes - 1
		}
		r.OpsExpected += p.OpsSent * per
	}
	r.Fingerprints = append(r.Fingerprints, fingerprint(rep))
}

// handProtocol maps a generated protocol onto its hand-written port.
func handProtocol(p string) string { return strings.TrimPrefix(p, "gen") }

// runJob executes the workload once in this process under the given
// variant. tr is non-nil only for the traced variant.
func runJob(w *workload, variant string, seed int64, tr *tracer) (*jobResult, error) {
	exec := harness.ExecOptions{Shards: w.shards}
	var s *scenario.Scenario
	var sw *scenario.Sweep
	if w.sweep != nil {
		sw = w.sweep(seed)
	} else {
		s = w.scenario(seed)
	}
	switch variant {
	case variantTimed:
	case variantTraced:
		exec.Obs = harness.ObsOptions{Enabled: true}
	case variantHand:
		if sw != nil {
			sw.Base.Protocol = handProtocol(sw.Base.Protocol)
		} else {
			s.Protocol = handProtocol(s.Protocol)
		}
	case variantLatency, variantRef:
		// Sweeps take no partitioner and their reference is a cold run: both
		// variants run the sweep's first resolved variant as a plain scenario.
		if sw != nil {
			vs, err := sw.Resolve()
			if err != nil {
				return nil, err
			}
			s, sw = vs[0].Scenario, nil
		}
		exec.Shards = 1
		if variant == variantLatency {
			exec.Shards, exec.Partitioner = 2, simnet.PartitionerLatency
		}
	default:
		return nil, fmt.Errorf("unknown variant %q", variant)
	}

	res := &jobResult{}
	var m0, m1 runtime.MemStats
	if tr != nil {
		if err := tr.spanSetup(w, seed); err != nil {
			return nil, err
		}
		if err := tr.startProfile(); err != nil {
			return nil, err
		}
		if sw != nil {
			// A sweep with the obs plane on runs every variant cold, so the
			// pass below that yields the counts never forks. The profile is
			// taken over a forked pass of its own: cpu_share then describes
			// the checkpoint/fork regime the workload exists for.
			sp := tr.begin("harness.RunSweep")
			_, err := harness.RunSweep(sw, exec.Shards)
			tr.end(sp)
			tr.stopProfile()
			if err != nil {
				return nil, err
			}
		}
	}
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var reports []*scenario.Report
	var scenarios []*scenario.Scenario
	if sw != nil {
		sp := tr.begin("harness.RunSweepExec")
		rep, err := harness.RunSweepExec(sw, exec.Shards, exec.Obs)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		vs, err := sw.Resolve()
		if err != nil {
			return nil, err
		}
		res.AllShared = true
		for i, vr := range rep.Results {
			res.AllShared = res.AllShared && vr.SharedPrefix
			reports = append(reports, vr.Report)
			scenarios = append(scenarios, vs[i].Scenario)
		}
	} else {
		sp := tr.begin("harness.RunScenarioExec")
		rep, err := harness.RunScenarioExec(s, exec)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		reports, scenarios = append(reports, rep), append(scenarios, s)
	}
	res.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc

	sp := tr.begin("Report.String")
	for i, rep := range reports {
		res.account(rep, scenarios[i])
	}
	tr.end(sp)
	if tr != nil {
		traced, err := tr.finish(res, reports)
		if err != nil {
			return nil, err
		}
		res.Traced = traced
	}
	return res, nil
}
