package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"macedon/internal/repo"
)

// TestCLIGoldens runs subcommands in process and requires each row to print
// its golden under testdata/golden byte for byte: the churn-partition trace
// (owned by TestGoldenTraces), the worked sweep as a table (owned by
// TestSweepGolden) and as JSON, and the reduced sweeps of the paper's
// Figures 8–12 (examples/figures/figN-small.json, at most 40 nodes) rendered
// by `macedon report` — the per-site latency and stretch, the
// correct-finger curves, the lookup latencies and hops, and the delivered
// stream. A row with no pinned shard count runs at repo.GoldenShards.
func TestCLIGoldens(t *testing.T) {
	scen := func(name string) string { return repo.Path("examples", "scenarios", name+".json") }
	type row struct {
		golden string // file under testdata/golden
		owned  bool   // this row re-records golden; another test owns it otherwise
		shards int    // 0: repo.GoldenShards
		cmd    func([]string) int
		args   []string
		report bool // print the JSON the command wrote through `macedon report`
	}
	rows := []row{
		{"churn-partition.txt", false, 0, runScenario, []string{"-trace", scen("churn-partition")}, false},
		{"churn-sweep.txt", false, 2, runSweep, []string{"-timing=false", scen("churn-sweep")}, false},
		{"churn-sweep.json", true, 2, runSweep, []string{"-json", scen("churn-sweep")}, false},
	}
	for _, fig := range []string{"fig8", "fig10", "fig11", "fig12"} {
		rows = append(rows, row{fig + "-small.txt", true, 0, runSweep, []string{"-obs", "-trace-sample=1000000",
			"-series-interval=10s", "-json", repo.Path("examples", "figures", fig+"-small.json")}, true})
	}
	for _, r := range rows {
		t.Run(r.golden, func(t *testing.T) {
			shardCounts := repo.GoldenShards(t)
			if r.shards != 0 {
				shardCounts = []int{r.shards}
			}
			check := repo.Golden
			if r.owned {
				check = repo.RecordGolden
			}
			for _, shards := range shardCounts {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					code, got := runCaptured(t, r.cmd, append([]string{fmt.Sprintf("-shards=%d", shards)}, r.args...)...)
					if code != 0 {
						t.Fatalf("exit code %d", code)
					}
					if r.report {
						path := filepath.Join(t.TempDir(), "sweep.json")
						if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
						if code, got = runCaptured(t, runReport, path); code != 0 {
							t.Fatalf("report exit code %d", code)
						}
					}
					check(t, repo.Path("testdata", "golden", r.golden), got)
				})
			}
		})
	}
}

// TestFigure7Golden: `macedon loc specs/*.mac` prints the paper's Figure 7,
// the specification lines of each bundled spec and their total, as
// testdata/golden/fig7-loc.txt pins it. loc takes no -shards, so it is not a
// TestCLIGoldens row.
func TestFigure7Golden(t *testing.T) {
	specs, err := repo.Specs()
	if err != nil || len(specs) == 0 {
		t.Fatalf("no specs: %v", err)
	}
	code, got := runCaptured(t, runLoc, specs...)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	repo.RecordGolden(t, repo.Path("testdata", "golden", "fig7-loc.txt"), got)
}

// TestCheckReportsUnknownParam: `scenario -check` and `sweep -check` resolve
// the stack with the params, so a name no layer declares fails the check.
func TestCheckReportsUnknownParam(t *testing.T) {
	dir := t.TempDir()
	scen := `{"name": "p", "seed": 1, "nodes": 4, "protocol": "pastry", "params": {%s},
	  "phases": [{"name": "idle", "duration": "10s"}]}`
	sweep := `{"name": "s", "base": ` + scen + `, "variants": [{"name": "v", "params": {%s}}]}`
	for _, c := range []struct {
		cmd      func([]string) int
		src      string
		wantCode int
	}{
		{runScenario, fmt.Sprintf(scen, `"cache_ms": 10000`), 0},
		{runScenario, fmt.Sprintf(scen, `"fix_ms": 1000`), 1},
		{runSweep, fmt.Sprintf(sweep, `"cache_ms": 10000`, `"cache_ms": 0`), 0},
		{runSweep, fmt.Sprintf(sweep, `"cache_ms": 10000`, `"no_such": 1`), 1},
	} {
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, []byte(c.src), 0o644); err != nil {
			t.Fatal(err)
		}
		if code, _ := runCaptured(t, c.cmd, "-check", path); code != c.wantCode {
			t.Errorf("-check on %s: exit code %d, want %d", c.src, code, c.wantCode)
		}
	}
}
