package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"macedon/internal/repo"
)

// runGenCaptured runs `macedon gen` in process and returns its exit code and
// what it wrote to standard output and standard error.
func runGenCaptured(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	stderr = capture(t, &os.Stderr, func() { code, stdout = runCaptured(t, runGen, args...) })
	return code, stdout, stderr
}

// TestGenChordSummaryAndOutput: `macedon gen -o` on specs/chord.mac reports
// what it translated on standard error and writes exactly the committed
// generated package.
func TestGenChordSummaryAndOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "genchord.go")
	code, stdout, stderr := runGenCaptured(t, "-pkg", "genchord", "-o", out, repo.Path("specs", "chord.mac"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if want := ": protocol chord: 16 transitions, 189 statements translated\n"; !strings.HasSuffix(stderr, want) {
		t.Errorf("summary %q, want it to end in %q", stderr, want)
	}
	if stdout != "" {
		t.Errorf("gen -o also wrote %d bytes to stdout", len(stdout))
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(repo.Path("internal", "overlays", "genchord", "genchord.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(committed) {
		t.Error("gen -o output differs from internal/overlays/genchord/genchord.go")
	}
}

// TestGenRejectsMalformedSpec: a spec that does not parse exits 1 and names
// the position of the error as line:col.
func TestGenRejectsMalformedSpec(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "bad.mac")
	src := "protocol p\ntransports { UDP u; }\nmessages { u m { int x; } \ntransitions { any recv m { } }\n"
	if err := os.WriteFile(spec, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runGenCaptured(t, spec)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if stdout != "" {
		t.Errorf("a malformed spec generated %d bytes", len(stdout))
	}
	if !regexp.MustCompile(`bad\.mac: \d+:\d+: `).MatchString(stderr) {
		t.Errorf("error %q carries no line:col position", stderr)
	}
}
