// Fork-determinism gate: a scenario branch executed from a checkpoint must
// be byte-identical to the same scenario run cold. RunScenarioForked runs
// the shared prefix, forks, executes the branch, rewinds, and executes it
// again; both outputs are compared against the checked-in golden trace — the
// same files the cold runs are gated on — at -shards=1 and -shards=4. The
// corpus covers kill/revive churn, partitions, link failures, and multicast
// workloads, so any state the checkpoint fails to rewind (a timer, a
// congestion window, a dedup key, a PRNG) shows up as a trace diff here.
package main

import (
	"os"
	"path/filepath"
	"testing"

	"macedon/internal/harness"
	"macedon/internal/metrics"
	"macedon/internal/scenario"
)

// forkGoldenScenarios is the fork gate's slice of the golden corpus: one
// kill/revive churn + partition scenario on a hand-written protocol, one on
// a machine-generated one, and the multicast workload (group state plus
// reliable-transport streams).
var forkGoldenScenarios = []string{
	"churn-partition",
	"genchord-churn",
	"multicast-workload",
}

func TestForkedBranchMatchesGolden(t *testing.T) {
	for _, name := range forkGoldenScenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := scenario.Load(filepath.Join("examples", "scenarios", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", "golden", name+".txt")
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden %s: %v", goldenPath, err)
			}
			for _, shards := range []int{1, 4} {
				first, second, err := harness.RunScenarioForked(s, shards)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if got := goldenOutput(first); got != string(want) {
					t.Fatalf("shards=%d: first branch diverges from cold golden:\n%s",
						shards, firstDiff(string(want), got))
				}
				if got := goldenOutput(second); got != string(want) {
					t.Fatalf("shards=%d: branch after restore diverges from cold golden:\n%s",
						shards, firstDiff(string(want), got))
				}
			}
		})
	}
}

// TestSweepGolden gates the comparative sweep report: `macedon sweep` on the
// worked example must emit the checked-in table byte for byte (the table is
// deterministic; only the timing footer, absent here, is machine-dependent).
// Run with MACEDON_UPDATE_GOLDEN=1 to regenerate after an intentional change.
func TestSweepGolden(t *testing.T) {
	sw, err := scenario.LoadSweep(filepath.Join("examples", "scenarios", "gen-churn-sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := harness.RunSweep(sw, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := metrics.SweepTable(rep)
	goldenPath := filepath.Join("testdata", "golden", "gen-churn-sweep.txt")
	if os.Getenv("MACEDON_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with MACEDON_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("sweep table diverges from %s:\n%s", goldenPath, firstDiff(string(want), got))
	}
	shared := 0
	for _, vr := range rep.Results {
		if vr.SharedPrefix {
			shared++
		}
	}
	if shared != 4 || rep.Groups != 2 {
		t.Fatalf("expected 2 shared-prefix groups covering all 4 variants, got groups=%d shared=%d", rep.Groups, shared)
	}
}

// TestForkedFigure12MatchesCold forks Figure 12's small forest, generated
// SplitStream over generated Scribe over generated Pastry, after its settled
// prefix: both branches must report byte for byte what the base scenario
// reports cold, at -shards=1 and -shards=4. Scribe's group tables, per-child
// tallies and dedup window, and SplitStream's block counters, are the state
// a checkpoint must rewind here.
func TestForkedFigure12MatchesCold(t *testing.T) {
	sw, err := scenario.LoadSweep(filepath.Join("examples", "figures", "fig12-small.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := &sw.Base
	for _, shards := range []int{1, 4} {
		cold, err := harness.RunScenarioExec(s, harness.ExecOptions{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		first, second, err := harness.RunScenarioForked(s, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		want := goldenOutput(cold)
		for i, rep := range []*scenario.Report{first, second} {
			if got := goldenOutput(rep); got != want {
				t.Fatalf("shards=%d: branch %d diverges from the cold run:\n%s", shards, i+1, firstDiff(want, got))
			}
		}
	}
}
