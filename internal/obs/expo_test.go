package obs

import (
	"strings"
	"testing"
	"time"
)

// TestParseTextEmpty asserts the degenerate pages an agent can legitimately
// ship — nothing at all, or only comments — parse to an empty scrape rather
// than an error, so a Fleet.Add of a just-started agent is a no-op.
func TestParseTextEmpty(t *testing.T) {
	for _, src := range []string{
		"",
		"\n\n\n",
		"# HELP macedon_x_total x.\n# TYPE macedon_x_total counter\n",
	} {
		sc, err := ParseText([]byte(src))
		if err != nil {
			t.Fatalf("ParseText(%q): %v", src, err)
		}
		if len(sc.Samples) != 0 {
			t.Fatalf("ParseText(%q): %d samples, want 0", src, len(sc.Samples))
		}
	}
}

// TestParseTextDuplicateLabels asserts label-order canonicalization: the
// same label set written in different orders parses to one canonical Labels
// string, so fleet merging sums them instead of splitting the family.
func TestParseTextDuplicateLabels(t *testing.T) {
	src := `macedon_ops_total{kind="lookup",proto="chord"} 3
macedon_ops_total{proto="chord",kind="lookup"} 4
`
	sc, err := ParseText([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Samples) != 2 {
		t.Fatalf("%d samples, want 2", len(sc.Samples))
	}
	if sc.Samples[0].Labels != sc.Samples[1].Labels {
		t.Fatalf("label order not canonicalized: %q vs %q", sc.Samples[0].Labels, sc.Samples[1].Labels)
	}
	f := NewFleet()
	f.Add(sc)
	if !strings.Contains(f.Text(), "macedon_ops_total{kind=\"lookup\",proto=\"chord\"} 7") {
		t.Fatalf("duplicate-label samples did not sum:\n%s", f.Text())
	}
}

// TestParseTextMalformed asserts malformed pages fail loudly instead of
// silently dropping samples.
func TestParseTextMalformed(t *testing.T) {
	for _, src := range []string{
		"macedon_x_total",               // no value
		"macedon_x_total one",           // non-numeric value
		"macedon_x_total{a=\"x\" 1",     // unbalanced braces: '}' missing
		"macedon_x_total{a} 1",          // label without value
		"macedon_x_total{a=unquoted} 1", // unquoted label value
		"macedon_x_total 1 2",           // trailing junk
		"macedon_x_total{a\"b=\"x\"} 1", // label name outside [a-zA-Z_][a-zA-Z0-9_]*
	} {
		if _, err := ParseText([]byte(src)); err == nil {
			t.Errorf("ParseText(%q): expected error", src)
		}
	}
}

// TestFleetMismatchedTypes exercises two agents disagreeing on a family's
// TYPE (a mixed-version fleet mid-upgrade): the merge must not lose samples,
// and the rendered aggregate carries exactly one TYPE line for the family —
// last writer wins, deterministically in Add order.
func TestFleetMismatchedTypes(t *testing.T) {
	a, err := ParseText([]byte("# TYPE macedon_depth counter\nmacedon_depth 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseText([]byte("# TYPE macedon_depth gauge\nmacedon_depth 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet()
	f.Add(a)
	f.Add(b)
	text := f.Text()
	if !strings.Contains(text, "macedon_depth 7") {
		t.Fatalf("samples lost across the type mismatch:\n%s", text)
	}
	if got := strings.Count(text, "# TYPE macedon_depth"); got != 1 {
		t.Fatalf("%d TYPE lines for the family, want 1:\n%s", got, text)
	}
	if !strings.Contains(text, "# TYPE macedon_depth gauge") {
		t.Fatalf("type merge not last-writer-wins:\n%s", text)
	}
}

// TestFleetEmptyExposition asserts folding empty pages in (agents that have
// not ticked yet) leaves the aggregate untouched.
func TestFleetEmptyExposition(t *testing.T) {
	empty, err := ParseText(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet()
	f.Add(empty)
	if f.Text() != "" {
		t.Fatalf("empty fleet renders %q", f.Text())
	}
	page, err := ParseText([]byte("macedon_x_total 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	f.Add(page)
	before := f.Text()
	f.Add(empty)
	if f.Text() != before {
		t.Fatalf("adding an empty page changed the aggregate:\n%s\nvs\n%s", before, f.Text())
	}
}

// TestFleetHistogramBucketMerge asserts histogram merging: per-agent
// _bucket/_sum/_count samples sum bucket-by-bucket, and the derived samples
// group under the base family's TYPE line in the rendered aggregate.
func TestFleetHistogramBucketMerge(t *testing.T) {
	page := func(le1, le2, inf, sum, count string) string {
		return "# TYPE macedon_hops histogram\n" +
			"macedon_hops_bucket{le=\"1\"} " + le1 + "\n" +
			"macedon_hops_bucket{le=\"2\"} " + le2 + "\n" +
			"macedon_hops_bucket{le=\"+Inf\"} " + inf + "\n" +
			"macedon_hops_sum " + sum + "\n" +
			"macedon_hops_count " + count + "\n"
	}
	f := NewFleet()
	for _, src := range []string{
		page("1", "3", "4", "7.5", "4"),
		page("0", "2", "3", "5.5", "3"),
	} {
		sc, err := ParseText([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		f.Add(sc)
	}
	text := f.Text()
	for _, want := range []string{
		"macedon_hops_bucket{le=\"1\"} 1",
		"macedon_hops_bucket{le=\"2\"} 5",
		"macedon_hops_bucket{le=\"+Inf\"} 7",
		"macedon_hops_sum 13",
		"macedon_hops_count 7",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("merged histogram missing %q:\n%s", want, text)
		}
	}
	if got := strings.Count(text, "# TYPE macedon_hops histogram"); got != 1 {
		t.Fatalf("%d TYPE lines for the histogram family, want 1:\n%s", got, text)
	}
	// The merged page must itself round-trip, so a controller can re-parse
	// what it rendered.
	if _, err := ParseText([]byte(text)); err != nil {
		t.Fatalf("merged exposition does not re-parse: %v", err)
	}
}

// TestSeriesRing pins the fixed-capacity ring: appends past capacity evict
// oldest-first, Dropped counts the evictions, and Snapshot returns the
// retained window in order.
func TestSeriesRing(t *testing.T) {
	s := NewSeries([]string{"v"}, 3)
	for i := 1; i <= 5; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i))
	}
	snap := s.Snapshot()
	if snap.Dropped != 2 || s.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", snap.Dropped)
	}
	vals, ok := snap.Column("v")
	if !ok || len(vals) != 3 || vals[0] != 3 || vals[2] != 5 {
		t.Fatalf("ring window = %v, want [3 4 5]", vals)
	}
	if snap.Points[0].At != 3*time.Second {
		t.Fatalf("oldest retained at %v, want 3s", snap.Points[0].At)
	}
	if _, ok := snap.Column("missing"); ok {
		t.Fatal("Column found a column that does not exist")
	}
}

// TestSeriesAppendMismatchPanics asserts the column-arity contract is
// enforced at the call site rather than surfacing as a skewed series later.
func TestSeriesAppendMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Append with wrong arity did not panic")
		}
	}()
	NewSeries([]string{"a", "b"}, 4).Append(time.Second, 1)
}

// TestSparkline pins the renderer's determinism and edge cases: empty input,
// flat series (all-low bars), and full-range scaling.
func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Fatalf("Sparkline(nil) = %q", got)
	}
	if got := Sparkline([]float64{5, 5, 5}); got != "▁▁▁" {
		t.Fatalf("flat sparkline = %q, want all-low bars", got)
	}
	if got := Sparkline([]float64{0, 7}); got != "▁█" {
		t.Fatalf("range sparkline = %q, want min and max glyphs", got)
	}
}
