package obs

import (
	"math"
	"os"
	"testing"

	"macedon/internal/repo"
)

// FuzzParseText feeds the exposition parser hostile pages. The page a
// controller parses arrives from another process inside a control frame, so
// the parser must never panic, and whatever it accepts must survive the
// controller's own render: Fleet.Text of a parsed page re-parses to the
// same families, label sets and values, and renders to the same bytes.
func FuzzParseText(f *testing.F) {
	r := NewRegistry()
	r.Counter("macedon_ops_total", "Workload operations injected.", L("kind", "lookup")).Add(42)
	r.Counter("macedon_ops_total", "Workload operations injected.", L("kind", `a "quoted", {braced} value`), L("proto", "chord")).Add(7)
	r.Gauge("macedon_nodes_alive", "Nodes currently alive.").Set(32)
	r.GaugeFunc("macedon_uptime_seconds", "Seconds since start.", func() float64 { return 12.5 })
	h := r.Histogram("macedon_op_latency_seconds", "End-to-end op latency.", []float64{0.01, 0.1, 1}, L("phase", "churn"))
	for _, v := range []float64{0.005, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	f.Add([]byte(r.Text()))
	golden, err := os.ReadFile(repo.Path("testdata", "golden", "obs-exposition.txt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)

	f.Fuzz(func(t *testing.T, page []byte) {
		sc, err := ParseText(page)
		if err != nil {
			return
		}
		first := NewFleet()
		first.Add(sc)
		text := first.Text()
		back, err := ParseText([]byte(text))
		if err != nil {
			t.Fatalf("rendered page does not re-parse: %v\n%s", err, text)
		}
		if len(back.Samples) != len(first.vals) {
			t.Fatalf("%d samples came back, %d were rendered:\n%s", len(back.Samples), len(first.vals), text)
		}
		for _, s := range back.Samples {
			want, ok := first.vals[s.Name+" "+s.Labels]
			if !ok {
				t.Fatalf("sample %s%s was never rendered:\n%s", s.Name, s.Labels, text)
			}
			if s.Value != want && !(math.IsNaN(s.Value) && math.IsNaN(want)) {
				t.Fatalf("sample %s%s = %v, rendered from %v", s.Name, s.Labels, s.Value, want)
			}
		}
		for fam, typ := range back.Types {
			if sc.Types[fam] != typ {
				t.Fatalf("family %s came back as %q, was %q", fam, typ, sc.Types[fam])
			}
		}
		second := NewFleet()
		second.Add(back)
		if again := second.Text(); again != text {
			t.Fatalf("render is not a fixed point:\n%s\nthen\n%s", text, again)
		}
	})
}
