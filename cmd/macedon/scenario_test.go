package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"macedon/internal/metrics"
	"macedon/internal/repo"
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
