// Golden-trace regression corpus: every scenario in the corpus runs at
// -shards=1 and -shards=4 and both outputs must be byte-identical to the
// checked-in golden trace. This is the CI determinism gate — stronger than
// the old self-diff step, because it pins behaviour across commits and
// across shard counts, not just within one run.
//
// Regenerate the goldens after an intentional behaviour change with:
//
//	MACEDON_UPDATE_GOLDEN=1 go test -run TestGoldenTraces .
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"macedon/internal/harness"
	"macedon/internal/metrics"
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
	"genchord-churn",
	"genpastry-churn",
	// genchord-checked opts into the runtime invariant checkers, so its
	// golden pins the per-phase check report — checker set, node count,
	// violation count — across shard counts and partitioners too.
	"genchord-checked",
}

// goldenOutput renders a report exactly as `macedon scenario -trace` prints
// it, so the checked-in files double as CLI-diff targets.
func goldenOutput(rep *scenario.Report) string {
	return rep.TraceText() + "\n" + rep.String()
}

// goldenShardCounts returns the shard counts the corpus runs at. The CI
// golden matrix pins one count per job via MACEDON_GOLDEN_SHARDS so the
// lanes split the work; unset, the default covers sequential and sharded.
func goldenShardCounts(t *testing.T) []int {
	env := os.Getenv("MACEDON_GOLDEN_SHARDS")
	if env == "" {
		return []int{1, 4}
	}
	var out []int
	for _, f := range strings.Split(env, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err != nil || n < 1 {
			t.Fatalf("MACEDON_GOLDEN_SHARDS: bad shard count %q", f)
		}
		out = append(out, n)
	}
	return out
}

func TestGoldenTraces(t *testing.T) {
	update := os.Getenv("MACEDON_UPDATE_GOLDEN") != ""
	shardCounts := goldenShardCounts(t)
	for _, name := range goldenScenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := scenario.Load(filepath.Join("examples", "scenarios", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", "golden", name+".txt")
			for _, shards := range shardCounts {
				rep, err := harness.RunScenarioExec(s, harness.ExecOptions{Shards: shards})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				got := goldenOutput(rep)
				if update && shards == shardCounts[0] {
					if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(goldenPath)
				if err != nil {
					t.Fatalf("missing golden (run with MACEDON_UPDATE_GOLDEN=1 to create): %v", err)
				}
				if got != string(want) {
					t.Fatalf("shards=%d output diverges from %s:\n%s",
						shards, goldenPath, firstDiff(string(want), got))
				}
			}
		})
	}
}

// TestGoldenTracesLatencyPartitioner gates the latency-aware partitioner
// against the SAME golden files as the striped default: vertex placement is
// an execution parameter, and event order is defined by deterministic
// (time, actor, seq) keys that never consult the assignment, so any
// partitioner must reproduce the corpus byte-for-byte at every shard count.
func TestGoldenTracesLatencyPartitioner(t *testing.T) {
	for _, name := range goldenScenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := scenario.Load(filepath.Join("examples", "scenarios", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", "golden", name+".txt")
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run TestGoldenTraces with MACEDON_UPDATE_GOLDEN=1 first): %v", err)
			}
			for _, shards := range []int{1, 2, 4} {
				rep, err := harness.RunScenarioExec(s, harness.ExecOptions{
					Shards:      shards,
					Partitioner: simnet.PartitionerLatency,
				})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if got := goldenOutput(rep); got != string(want) {
					t.Fatalf("latency partitioner, shards=%d diverges from %s:\n%s",
						shards, goldenPath, firstDiff(string(want), got))
				}
			}
		})
	}
}

// TestGoldenObsJSON pins the machine-readable obs section: the churn
// scenario runs with the observability plane on at -shards=1, 2, and 4, and
// the full JSON report — per-phase histograms, scheduler families, time
// series, exposition, sampled events, span records — must be byte-identical
// to the checked-in golden at every shard count. Regenerate with
// MACEDON_UPDATE_GOLDEN=1.
func TestGoldenObsJSON(t *testing.T) {
	update := os.Getenv("MACEDON_UPDATE_GOLDEN") != ""
	s, err := scenario.Load(filepath.Join("examples", "scenarios", "churn-partition.json"))
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "golden", "obs-report.json")
	for _, shards := range []int{1, 2, 4} {
		rep, err := harness.RunScenarioExec(s, harness.ExecOptions{Shards: shards, Obs: harness.ObsOptions{Enabled: true, TraceSample: 4}})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		b, err := metrics.ReportToJSON(rep)
		if err != nil {
			t.Fatal(err)
		}
		got := string(b) + "\n"
		if update && shards == 1 {
			if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden (run with MACEDON_UPDATE_GOLDEN=1 to create): %v", err)
		}
		if got != string(want) {
			t.Fatalf("shards=%d obs JSON diverges from %s:\n%s",
				shards, goldenPath, firstDiff(string(want), got))
		}
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d vs got %d", len(wl), len(gl))
}
