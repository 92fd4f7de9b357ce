package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"macedon/internal/repo"
)

// runBoth runs a subcommand in process and returns its exit code and what
// it wrote to standard output and standard error.
func runBoth(t *testing.T, cmd func([]string) int, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	stderr = capture(t, &os.Stderr, func() { code, stdout = runCaptured(t, cmd, args...) })
	return code, stdout, stderr
}

// module makes a temporary module root, as gen -o wants to run at, and
// changes to it.
func module(t *testing.T) {
	t.Helper()
	mod := t.TempDir()
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module macedon\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(mod)
}

// TestGenChordSummaryAndOutput: `macedon gen -o DIR`, run at a module's
// root, on specs/chord.mac reports what it translated on standard error,
// writes exactly the committed generated package to DIR/chord/chord.go, and
// writes the registry of the one spec, named for DIR and importing the
// package from DIR's place in the module.
func TestGenChordSummaryAndOutput(t *testing.T) {
	spec, committed := repo.Path("specs", "chord.mac"), repo.Path("internal", "overlays", "chord", "chord.go")
	module(t)
	code, stdout, stderr := runBoth(t, runGen, "-o", "protos", spec)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if want := ": protocol chord: 16 transitions\n"; !strings.HasSuffix(stderr, want) {
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

// TestGenRejectsMalformedSpec: check and gen agree. A spec that does not
// parse, and each randtree probe, which parses but does not translate, makes
// both exit 1 with the same error at the same line:col; gen writes nothing,
// to standard output or under -o. A layered spec is checked with the set it
// is given, as gen -o registers it: an unknown base, a cycle of bases, an
// undeclared base param or a second spec named chord makes check and gen -o
// exit 1, while chord.mac, the first in the set, checks ok. Gen of one spec to standard output has no
// set to check it against.
func TestGenRejectsMalformedSpec(t *testing.T) {
	type malformed struct {
		name, src, want string
		layering        bool
	}
	cases := []malformed{
		{"unclosed message section", "protocol p\ntransports { UDP u; }\nmessages { u m { int x; } \ntransitions { any recv m { } }\n",
			"4:24: expected \";\", got \"m\"", false},
		{"unknown base", "protocol up uses nosuch\n", `1:18: protocol up uses unknown base "nosuch"`, true},
		{"cycle of bases", "protocol up uses up\n", "1:18: protocol up uses itself through its chain of bases", true},
		{"undeclared base param", "protocol up uses chord(nosuch = 2)\n", `1:24: base chord declares no int auxiliary variable "nosuch"`, true},
		{"two specs of one name", "protocol chord\n", "1:1: protocol chord declared twice", true},
	}
	for _, p := range repo.RandtreeProbes {
		src, err := p.Apply()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, malformed{p.New, src, p.Err, false})
	}
	chord := repo.Path("specs", "chord.mac")
	module(t)
	runs := []struct {
		name string
		cmd  func([]string) int
		args []string
	}{{"check", runCheck, nil}, {"gen", runGen, nil}, {"gen -o", runGen, []string{"-o", "protos"}}}
	for _, c := range cases {
		if err := os.WriteFile("bad.mac", []byte(c.src), 0o644); err != nil {
			t.Fatal(err)
		}
		want := "bad.mac: " + c.want + "\n"
		for _, r := range runs {
			args, wantOut := append(r.args, "bad.mac"), ""
			if c.layering {
				if r.name == "gen" {
					continue
				}
				args = append(r.args, chord, "bad.mac")
				if r.name == "check" {
					wantOut = chord + ": protocol chord ok (2 states, 7 messages, 16 transitions)\n"
				}
			}
			code, stdout, stderr := runBoth(t, r.cmd, args...)
			if code != 1 || stderr != want {
				t.Errorf("%s: %s: exit %d, %q; want exit 1, %q", c.name, r.name, code, stderr, want)
			}
			if stdout != wantOut {
				t.Errorf("%s: %s wrote %q to stdout, want %q", c.name, r.name, stdout, wantOut)
			}
		}
		if _, err := os.Stat("protos"); !os.IsNotExist(err) {
			t.Fatalf("%s: gen -o made protos/ (%v)", c.name, err)
		}
	}
}

// TestGenWritesNothingUnlessAllTranslate: gen -o with a spec that
// translates and one that does not leaves DIR empty: neither the good
// spec's package nor the registry is written.
func TestGenWritesNothingUnlessAllTranslate(t *testing.T) {
	chord := repo.Path("specs", "chord.mac")
	src, err := repo.RandtreeProbes[0].Apply()
	if err != nil {
		t.Fatal(err)
	}
	module(t)
	if err := os.WriteFile("bad.mac", []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir("protos", 0o755); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runBoth(t, runGen, "-o", "protos", chord, "bad.mac")
	if code != 1 || !strings.HasPrefix(stderr, "bad.mac: ") {
		t.Errorf("exit %d, %q; want exit 1 and bad.mac's error", code, stderr)
	}
	if left, err := os.ReadDir("protos"); err != nil || len(left) != 0 {
		t.Errorf("protos/ holds %v (%v), want nothing", left, err)
	}
}
