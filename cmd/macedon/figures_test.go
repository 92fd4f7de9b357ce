package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"macedon/internal/repo"
)

// TestFigureGoldens pins the reduced sweeps of the paper's Figures 10–12
// (examples/figures/fig1N-small.json, at most 40 nodes) end to end through
// the CLI: `macedon sweep -obs -series-interval 10s -json` at -shards=1 and
// -shards=4, rendered by `macedon report`, must print the checked-in golden
// byte for byte — the correct-finger curves, the lookup latencies and hops,
// and the delivered stream. Run with MACEDON_UPDATE_GOLDEN=1 to regenerate
// after an intentional change.
func TestFigureGoldens(t *testing.T) {
	update := os.Getenv("MACEDON_UPDATE_GOLDEN") != ""
	for _, fig := range []string{"fig10", "fig11", "fig12"} {
		t.Run(fig, func(t *testing.T) {
			sweep := repo.Path("examples", "figures", fig+"-small.json")
			golden := repo.Path("testdata", "golden", fig+"-small.txt")
			for _, shards := range []string{"1", "4"} {
				code, js := runCaptured(t, runSweep, "-shards="+shards, "-obs", "-trace-sample=1000000", "-series-interval=10s", "-json", sweep)
				if code != 0 {
					t.Fatalf("shards=%s: sweep exit code %d", shards, code)
				}
				path := filepath.Join(t.TempDir(), fig+".json")
				if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
					t.Fatal(err)
				}
				code, got := runCaptured(t, runReport, path)
				if code != 0 {
					t.Fatalf("shards=%s: report exit code %d", shards, code)
				}
				if update && shards == "1" {
					if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("missing golden (run with MACEDON_UPDATE_GOLDEN=1 to create): %v", err)
				}
				if got != string(want) {
					t.Fatalf("shards=%s: %s diverges from %s:\n%s", shards, fig, golden, firstDiff(string(want), got))
				}
			}
		})
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d vs got %d", len(wl), len(gl))
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
