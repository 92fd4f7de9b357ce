package repo

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir moves the process into dir for one test; the cleanup restores the
// original working directory so later tests see the normal layout.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

func TestRootFindsGoModFromNestedDir(t *testing.T) {
	want := Root()
	if _, err := os.Stat(filepath.Join(want, "go.mod")); err != nil {
		t.Fatalf("Root() = %q does not contain go.mod: %v", want, err)
	}
	// Resolution must be working-directory independent: descend into a
	// nested package directory and ask again.
	chdir(t, filepath.Join(want, "internal", "repo"))
	if got := Root(); got != want {
		t.Fatalf("Root() from nested dir = %q, want %q", got, want)
	}
}

func TestRootFallsBackWithoutMarker(t *testing.T) {
	// From a directory tree with no go.mod anywhere above, the walk finds
	// no marker and Root falls back to the compile-time source path — which
	// still identifies this repository.
	want := Root()
	tmp := t.TempDir()
	if _, err := os.Stat(filepath.Join(tmp, "go.mod")); err == nil {
		t.Skip("temp dir unexpectedly contains go.mod")
	}
	chdir(t, tmp)
	got := Root()
	if got != want {
		t.Fatalf("Root() without a marker = %q, want source-path fallback %q", got, want)
	}
}

func TestPathJoinsOntoRoot(t *testing.T) {
	got := Path("specs", "chord.mac")
	if !strings.HasSuffix(got, filepath.Join("specs", "chord.mac")) {
		t.Fatalf("Path() = %q", got)
	}
	if !filepath.IsAbs(got) {
		t.Fatalf("Path() = %q, want absolute", got)
	}
	if _, err := os.Stat(got); err != nil {
		t.Fatalf("Path() result does not exist: %v", err)
	}
}

func TestSpecsListsBundledSpecifications(t *testing.T) {
	specs, err := Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("Specs() returned no bundled .mac files")
	}
	for _, s := range specs {
		if filepath.Ext(s) != ".mac" {
			t.Fatalf("Specs() returned non-spec file %q", s)
		}
	}
}

// fakeTB records the first failure instead of stopping the test.
type fakeTB struct {
	testing.TB
	failed string
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Fatalf(format string, args ...any) {
	if f.failed == "" {
		f.failed = fmt.Sprintf(format, args...)
	}
}

// TestRecordGoldenWritesOnce: under MACEDON_UPDATE_GOLDEN the first
// RecordGolden for a path rewrites it, and a later run that disagrees fails,
// naming the line, instead of overwriting what was recorded.
func TestRecordGoldenWritesOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	t.Setenv("MACEDON_UPDATE_GOLDEN", "1")
	RecordGolden(t, path, "a\nb\n")
	f := &fakeTB{TB: t}
	RecordGolden(f, path, "a\nc\n")
	if want := "line 2:\n  want: b\n  got:  c"; !strings.HasSuffix(f.failed, want) {
		t.Fatalf("second run: failure %q, want it to end in %q", f.failed, want)
	}
	if b, _ := os.ReadFile(path); string(b) != "a\nb\n" {
		t.Fatalf("golden overwritten: %q", b)
	}
}
