package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"macedon/internal/repo"
)

// FuzzParseScenario feeds hostile scenario and sweep files through the path
// `macedon scenario` and `macedon sweep` take before anything runs: Parse →
// Validate → Compile, and ParseSweep → Resolve → Compile of every variant.
// Nothing may panic or hang, and whatever parses must also validate and
// compile: Validate bounds the schedule (MaxOps) and the timeline, and every
// interarrival steps at least 1 ns. testdata/fuzz holds two files that used
// to hang Compile: a wave churn with a 2 ns period and a Poisson churn at
// 10⁹ kills a second.
func FuzzParseScenario(f *testing.F) {
	seeds, err := filepath.Glob(repo.Path("examples", "scenarios", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no example scenarios to seed from (%v)", err)
	}
	// A sweep with sites: the only seed that sets the field.
	seeds = append(seeds, repo.Path("examples", "figures", "fig8-small.json"))
	for _, p := range seeds {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(sweepJSON())

	f.Fuzz(func(t *testing.T, b []byte) {
		if s, err := Parse(b); err == nil {
			if err := s.Validate(); err != nil {
				t.Fatalf("a parsed scenario fails Validate: %v", err)
			}
			if _, err := Compile(s); err != nil {
				t.Fatalf("a valid scenario fails Compile: %v", err)
			}
		}
		if sw, err := ParseSweep(b); err == nil {
			vs, err := sw.Resolve()
			if err != nil {
				t.Fatalf("a parsed sweep fails Resolve: %v", err)
			}
			for _, v := range vs {
				if _, err := Compile(v.Scenario); err != nil {
					t.Fatalf("variant %s of a valid sweep fails Compile: %v", v.Name, err)
				}
			}
		}
	})
}
