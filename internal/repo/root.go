// Package repo locates the repository root so that tests and tools can
// resolve bundled assets (specs/*.mac, example scenarios) regardless of the
// working directory they run from, checks tests' output against the
// golden files (golden.go), and holds the edits of a bundled spec that must
// not translate (probes.go). Only tests import it.
package repo

import (
	"os"
	"path/filepath"
	"runtime"
)

// Root returns the absolute repository root. It prefers walking up from the
// working directory looking for go.mod (correct under `go test ./...` and
// any checkout location), falling back to the compile-time source path.
func Root() string {
	if dir, err := os.Getwd(); err == nil {
		for d := dir; ; d = filepath.Dir(d) {
			if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
				return d
			}
			if filepath.Dir(d) == d {
				break
			}
		}
	}
	_, file, _, _ := runtime.Caller(0)
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// Path joins path elements onto the repository root.
func Path(elem ...string) string {
	return filepath.Join(append([]string{Root()}, elem...)...)
}

// Specs returns the sorted paths of the bundled .mac specifications.
func Specs() ([]string, error) {
	return filepath.Glob(Path("specs", "*.mac"))
}
