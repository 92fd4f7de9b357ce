package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"macedon/internal/deploy"
	"macedon/internal/metrics"
	"macedon/internal/repo"
	"macedon/internal/scenario"
)

// TestScenarioCheckPrintsSchedule: `macedon scenario -check` compiles the
// file and resolves its stack without running it, and prints the one-line
// schedule summary.
func TestScenarioCheckPrintsSchedule(t *testing.T) {
	code, out := runCaptured(t, runScenario, "-check", repo.Path("examples", "scenarios", "chord-checked.json"))
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.HasPrefix(out, `scenario "chord-checked": 16 nodes, 3 phases, `) || strings.Count(out, "\n") != 1 {
		t.Errorf("summary %q", out)
	}
}

// TestScenarioBadInvocations: no file is a usage error (exit 2); a file that
// does not parse fails the run (exit 1) with a message naming the file.
func TestScenarioBadInvocations(t *testing.T) {
	var code int
	stderr := capture(t, &os.Stderr, func() { code, _ = runCaptured(t, runScenario) })
	if code != 2 || !strings.Contains(stderr, "scenario file required") {
		t.Errorf("no file: exit %d, stderr %q", code, stderr)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": "bad", "nodes": `), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr = capture(t, &os.Stderr, func() { code, _ = runCaptured(t, runScenario, bad) })
	if code != 1 || !strings.Contains(stderr, bad) {
		t.Errorf("malformed file: exit %d, stderr %q", code, stderr)
	}
}

// TestScenarioWritesJSONReport: a small run with -json writes a report that
// decodes as metrics.ReportJSON and names the scenario it ran.
func TestScenarioWritesJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	code, out := runCaptured(t, runScenario, "-shards=1", "-json", path, repo.Path("examples", "scenarios", "multicast-workload.json"))
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if out == "" {
		t.Error("no report table on stdout")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep metrics.ReportJSON
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Scenario != "multicast-workload" || len(rep.Phases) == 0 {
		t.Errorf("report: scenario %q, %d phases", rep.Scenario, len(rep.Phases))
	}
}

// TestFuzzReplayCommittedRepro: a committed repro replays clean.
func TestFuzzReplayCommittedRepro(t *testing.T) {
	code, out := runCaptured(t, runFuzz, "-replay", repo.Path("testdata", "repro", "fuzz-4.json"))
	if code != 0 || !strings.HasSuffix(out, ": 0 violation(s)\n") {
		t.Errorf("exit %d, output %q", code, out)
	}
}

// TestFuzzCampaignWritesNoRepro: two passing seeds exit 0 and leave the
// repro directory empty.
func TestFuzzCampaignWritesNoRepro(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repro")
	code, out := runCaptured(t, runFuzz, "-seed", "1", "-runs", "2", "-out", dir)
	if code != 0 || !strings.Contains(out, "fuzz: 2 seed(s) from 1, 0 failing") {
		t.Errorf("exit %d, output %q", code, out)
	}
	if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
		t.Errorf("%d repro file(s) written", len(entries))
	}
}

// TestStackRejectedOnEveryPath: an unknown protocol and a param that no
// layer declares are refused where a scenario is loaded — scenario.Parse,
// scenario.LoadSweep over one bad variant, scenario.Compile of a scenario
// that never went through Parse, `scenario -check`, `sweep -check` and
// deploy.Run — and every path reports the error once, naming the field.
// The bench's genchord alias, with a Chord param, resolves on every path.
func TestStackRejectedOnEveryPath(t *testing.T) {
	const scen = `{"name": "s", "seed": 1, "nodes": 4, "protocol": %q, "params": %s,
	  "phases": [{"name": "idle", "duration": "10s"}]}`
	for _, c := range []struct {
		name, proto, params string
		want                string // "" resolves
	}{
		{"unknown protocol", "nosuch", `{}`, `protocol: unknown "nosuch" (have ammo, `},
		{"undeclared param", "pastry", `{"fix_ms": 1000}`, `params: "fix_ms": no layer of protocol "pastry" declares`},
		{"bench alias", "genchord", `{"fix_ms": 1000}`, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			src := fmt.Sprintf(scen, c.proto, c.params)
			scenPath := filepath.Join(dir, "scenario.json")
			sweepPath := filepath.Join(dir, "sweep.json")
			sweepSrc := fmt.Sprintf(`{"name": "w", "base": %s, "variants": [{"name": "ok"}, {"name": "bad", "protocol": %q, "params": %s}]}`,
				fmt.Sprintf(scen, "chord", `{}`), c.proto, c.params)
			for path, b := range map[string]string{scenPath: src, sweepPath: sweepSrc} {
				if err := os.WriteFile(path, []byte(b), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var raw scenario.Scenario // never validated: Compile must refuse it itself
			if err := json.Unmarshal([]byte(src), &raw); err != nil {
				t.Fatal(err)
			}
			errText := func(err error) string {
				if err == nil {
					return ""
				}
				return err.Error()
			}
			_, parseErr := scenario.Parse([]byte(src))
			_, sweepErr := scenario.LoadSweep(sweepPath)
			_, compileErr := scenario.Compile(&raw)
			// No agent starts: the command does not exist, so a scenario that
			// resolves fails at its first spawn instead.
			_, deployErr := deploy.Run(deploy.Config{Scenario: &raw, AgentCmd: []string{filepath.Join(dir, "no-agent")}})
			var scenCode, sweepCode int
			scenOut := capture(t, &os.Stderr, func() { scenCode, _ = runCaptured(t, runScenario, "-check", scenPath) })
			sweepOut := capture(t, &os.Stderr, func() { sweepCode, _ = runCaptured(t, runSweep, "-check", sweepPath) })

			paths := map[string]string{
				"Parse":           errText(parseErr),
				"LoadSweep":       errText(sweepErr),
				"Compile":         errText(compileErr),
				"scenario -check": scenOut,
				"sweep -check":    sweepOut,
			}
			if c.want == "" {
				for path, msg := range paths {
					if msg != "" {
						t.Errorf("%s: %s", path, msg)
					}
				}
				if scenCode != 0 || sweepCode != 0 {
					t.Errorf("exit codes %d, %d; want 0", scenCode, sweepCode)
				}
				if msg := errText(deployErr); !strings.Contains(msg, "spawn node 0") {
					t.Errorf("deploy.Run: %v, want it past resolution, failing its first spawn", deployErr)
				}
				return
			}
			paths["deploy.Run"] = errText(deployErr)
			for path, msg := range paths {
				if strings.Count(msg, c.want) != 1 || strings.Count(strings.TrimSpace(msg), "\n") != 0 {
					t.Errorf("%s: %q, want one line naming it once: %q", path, msg, c.want)
				}
			}
			if scenCode != 1 || sweepCode != 1 {
				t.Errorf("exit codes %d, %d; want 1", scenCode, sweepCode)
			}
		})
	}
}
