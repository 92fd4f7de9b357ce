// Golden-trace regression corpus: every corpus scenario must print its
// checked-in golden (testdata/golden/<name>.txt) byte for byte at every
// shard count, which pins behaviour across commits as well as across shard
// counts. TestGoldenTraces owns those files: it is the one test that
// re-records them. The latency-placement test below, the fork gate in
// fork_test.go and the CLI table in cmd/macedon only compare against them.
// TestGoldenObsJSON owns testdata/golden/obs-report.json.
//
// Every check goes through repo.Golden and repo.RecordGolden. After an
// intentional behaviour change, re-record every golden with:
//
//	MACEDON_UPDATE_GOLDEN=1 go test ./...
package main

import (
	"fmt"
	"path/filepath"
	"testing"

	"macedon/internal/harness"
	"macedon/internal/metrics"
	"macedon/internal/repo"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
)

// goldenScenarios lists the corpus: the PR 1 churn-partition scenario plus
// link-failure, multicast-workload, the NICE/Overcast/AMMO/Bullet churn audits, and the
// machine-generated chord/pastry agents under lookup workloads and churn.
var goldenScenarios = []string{
	"churn-partition",
	"link-failure",
	"multicast-workload",
	"nice-churn",
	"overcast-churn",
	"ammo-churn",
	"bullet-churn",
	"chord-churn",
	"pastry-churn",
	// chord-checked opts into the runtime invariant checkers, so its
	// golden pins the per-phase check report — checker set, node count,
	// violation count — across shard counts too.
	"chord-checked",
}

// goldenOutput renders a report exactly as `macedon scenario -trace` prints
// it, so the checked-in files double as CLI-diff targets.
func goldenOutput(rep *scenario.Report) string {
	return rep.TraceText() + "\n" + rep.String()
}

// goldenRun loads the corpus scenario name and returns its golden's path.
func goldenRun(t *testing.T, name string) (*scenario.Scenario, string) {
	t.Helper()
	s, err := scenario.Load(filepath.Join("examples", "scenarios", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return s, filepath.Join("testdata", "golden", name+".txt")
}

// TestGoldenTraces runs the corpus at repo.GoldenShards (CI's golden matrix
// pins one count per leg); a re-record takes the first count's output.
func TestGoldenTraces(t *testing.T) {
	for _, name := range goldenScenarios {
		t.Run(name, func(t *testing.T) {
			s, path := goldenRun(t, name)
			for _, shards := range repo.GoldenShards(t) {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					rep, err := harness.RunScenarioExec(s, harness.ExecOptions{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					repo.RecordGolden(t, path, goldenOutput(rep))
				})
			}
		})
	}
}

// TestGoldenTracesLatencyPartitioner gates the latency placement, named
// explicitly as simnet.PartitionerLatency the way the benchmark names it,
// against the SAME golden files at shards 1, 2 and 4: vertex placement is
// an execution parameter, and event order is defined by deterministic
// (time, actor, seq) keys that never consult the assignment, so the
// corpus must come out byte-for-byte at every shard count.
func TestGoldenTracesLatencyPartitioner(t *testing.T) {
	for _, name := range goldenScenarios {
		t.Run(name, func(t *testing.T) {
			s, path := goldenRun(t, name)
			for _, shards := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					rep, err := harness.RunScenarioExec(s, harness.ExecOptions{
						Shards:      shards,
						Partitioner: simnet.PartitionerLatency,
					})
					if err != nil {
						t.Fatal(err)
					}
					repo.Golden(t, path, goldenOutput(rep))
				})
			}
		})
	}
}

// TestGoldenObsJSON pins the machine-readable obs section: the churn
// scenario runs with the observability plane on at -shards=1, 2, and 4, and
// the full JSON report — per-phase histograms, scheduler families, time
// series, exposition, sampled events, span records — must be byte-identical
// to testdata/golden/obs-report.json at every shard count.
func TestGoldenObsJSON(t *testing.T) {
	s, _ := goldenRun(t, "churn-partition")
	path := filepath.Join("testdata", "golden", "obs-report.json")
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rep, err := harness.RunScenarioExec(s, harness.ExecOptions{Shards: shards, Obs: harness.ObsOptions{Enabled: true, TraceSample: 4}})
			if err != nil {
				t.Fatal(err)
			}
			b, err := metrics.ReportToJSON(rep)
			if err != nil {
				t.Fatal(err)
			}
			repo.RecordGolden(t, path, string(b)+"\n")
		})
	}
}
