// Fork-determinism gate: a scenario branch executed from a checkpoint must
// be byte-identical to the same scenario run cold. RunScenarioForked runs
// the shared prefix, forks, executes the branch, rewinds, and executes it
// again; both outputs are compared against the checked-in golden trace — the
// same files the cold runs are gated on, owned and re-recorded by
// TestGoldenTraces — at -shards=1 and -shards=4. The
// corpus covers kill/revive churn, partitions, link failures, and multicast
// workloads, so any state the checkpoint fails to rewind (a timer, a
// congestion window, a dedup key, a PRNG) shows up as a trace diff here.
package main

import (
	"fmt"
	"path/filepath"
	"testing"

	"macedon/internal/harness"
	"macedon/internal/metrics"
	"macedon/internal/repo"
	"macedon/internal/scenario"
)

// forkGoldenScenarios is the fork gate's slice of the golden corpus: one
// kill/revive churn + partition scenario on a hand-written protocol, one on
// a machine-generated one, and the multicast workload (group state plus
// reliable-transport streams).
var forkGoldenScenarios = []string{
	"churn-partition",
	"chord-churn",
	"multicast-workload",
}

func TestForkedBranchMatchesGolden(t *testing.T) {
	for _, name := range forkGoldenScenarios {
		t.Run(name, func(t *testing.T) {
			s, path := goldenRun(t, name)
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					first, second, err := harness.RunScenarioForked(s, shards)
					if err != nil {
						t.Fatal(err)
					}
					repo.Golden(t, path, goldenOutput(first))
					repo.Golden(t, path, goldenOutput(second))
				})
			}
		})
	}
}

// TestSweepGolden gates the comparative sweep report: `macedon sweep` on the
// worked example must emit testdata/golden/churn-sweep.txt byte for byte
// (the table is deterministic; only the timing footer, absent here, is
// machine-dependent), and this test owns that file. Its four variants fall
// into two groups that each share their settled prefix, with the obs plane
// off and on: obs forks with the run, so it must not change the strategy.
func TestSweepGolden(t *testing.T) {
	sw, err := scenario.LoadSweep(filepath.Join("examples", "scenarios", "churn-sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, obs := range []bool{false, true} {
		rep, err := harness.RunSweepExec(sw, 2, harness.ObsOptions{Enabled: obs})
		if err != nil {
			t.Fatal(err)
		}
		if !obs {
			repo.RecordGolden(t, filepath.Join("testdata", "golden", "churn-sweep.txt"), metrics.SweepTable(rep))
		}
		if rep.Groups != 2 {
			t.Fatalf("obs=%v: expected 2 shared-prefix groups, got %d", obs, rep.Groups)
		}
		for _, vr := range rep.Results {
			if !vr.SharedPrefix {
				t.Fatalf("obs=%v: variant %q ran its prefix alone", obs, vr.Name)
			}
		}
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
				t.Fatalf("shards=%d: branch %d diverges from the cold run:\n%s", shards, i+1, repo.FirstDiff(want, got))
			}
		}
	}
}
