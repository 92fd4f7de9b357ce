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

// TestGenChordSummaryAndOutput: `macedon gen -o DIR`, run at a module's
// root, on specs/chord.mac reports what it translated on standard error,
// writes exactly the committed generated package to DIR/chord/chord.go, and
// writes the registry of the one spec, named for DIR and importing the
// package from DIR's place in the module.
func TestGenChordSummaryAndOutput(t *testing.T) {
	spec, committed := repo.Path("specs", "chord.mac"), repo.Path("internal", "overlays", "chord", "chord.go")
	mod := t.TempDir()
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module macedon\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(mod)
	code, stdout, stderr := runGenCaptured(t, "-o", "protos", spec)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if want := ": protocol chord: 16 transitions, 189 statements translated\n"; !strings.HasSuffix(stderr, want) {
		t.Errorf("summary %q, want it to end in %q", stderr, want)
	}
	if stdout != "" {
		t.Errorf("gen -o also wrote %d bytes to stdout", len(stdout))
	}
	got, err := os.ReadFile(filepath.Join("protos", "chord", "chord.go"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("gen -o output differs from internal/overlays/chord/chord.go")
	}
	reg, err := os.ReadFile(filepath.Join("protos", "protos.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package protos\n", "\t\"macedon/protos/chord\"\n", "\"chord\": {\"\", map[string]int{}, chord.New()},\n"} {
		if !strings.Contains(string(reg), want) {
			t.Errorf("registry lacks %q:\n%s", want, reg)
		}
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
