package scenario

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"macedon/internal/repo"
)

// FuzzParseScenario feeds hostile scenario and sweep files through the path
// `macedon scenario` and `macedon sweep` take before anything runs: Parse →
// Validate → Compile, and ParseSweep → Resolve → Compile of every variant.
// Nothing may panic or hang, and whatever parses must also validate and
// compile: Validate bounds the schedule (MaxOps) and the timeline, and every
// interarrival steps at least 1 ns. testdata/fuzz holds two files that used
// to hang Compile: a wave churn with a 2 ns period and a Poisson churn at
// 10⁹ kills a second. Every compiled schedule's cues must hold to the one
// firing order (checkCues).
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
			sched, err := Compile(s)
			if err != nil {
				t.Fatalf("a valid scenario fails Compile: %v", err)
			}
			checkCues(t, sched)
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

// checkCues: a schedule's cues cover every op once, in op order, never step
// back in time — so the emulator's stable sort, which slots its samples in,
// moves none of them — and a prefix's cues followed by its branch's are the
// whole run's.
func checkCues(t *testing.T, sched *Schedule) {
	t.Helper()
	last := len(sched.Phases) - 1
	next, at := 0, time.Duration(0)
	for c := range sched.Cues(-1, last) {
		if c.At < at {
			t.Fatalf("cue %+v steps back from %s", c, at)
		}
		at = c.At
		if c.Kind == CueOps {
			if c.I != next || c.J <= c.I {
				t.Fatalf("cue %+v, want ops from %d", c, next)
			}
			next = c.J
		}
	}
	if next != len(sched.Ops) {
		t.Fatalf("the cues cover %d of %d ops", next, len(sched.Ops))
	}
	fork := last / 2
	split := append(slices.Collect(sched.Cues(-1, fork)), slices.Collect(sched.Cues(fork+1, last))...)
	if whole := slices.Collect(sched.Cues(-1, last)); !slices.Equal(split, whole) {
		t.Fatalf("cues split after phase %d differ from the whole run's", fork)
	}
}
