package obs

import (
	"testing"

	"macedon/internal/repo"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// le semantics: a value equal to a bound lands in that bound's bucket.
	cases := []struct {
		v      float64
		bucket int
	}{
		{0.5, 0}, {1, 0}, {1.0001, 1}, {2, 1}, {3, 2}, {4, 2}, {4.5, 3}, {100, 3},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d want %d (snapshot %s)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 8 {
		t.Errorf("count: got %d want 8", s.Count)
	}
	// Sum is exact in nano-units: 0.5+1+1.0001+2+3+4+4.5+100 = 116.0001
	if got := s.Sum; got != 116.0001 {
		t.Errorf("sum: got %v want 116.0001", got)
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestRegistryHandleIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "help", L("k", "v"))
	b := r.Counter("c_total", "help", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels returned distinct counter handles")
	}
	c := r.Counter("c_total", "help", L("k", "w"))
	if a == c {
		t.Fatal("distinct labels returned the same handle")
	}
	a.Add(3)
	if b.Load() != 3 {
		t.Fatalf("aliased handle sees %d, want 3", b.Load())
	}
}

// TestExpositionGolden pins the exposition byte format: a registry with
// one of each family kind, labeled and unlabeled, must render exactly
// testdata/golden/obs-exposition.txt, which this test owns.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("macedon_ops_total", "Workload operations injected.", L("kind", "lookup")).Add(42)
	r.Counter("macedon_ops_total", "Workload operations injected.", L("kind", "multicast")).Add(7)
	r.Counter("macedon_msgs_sent_total", "Protocol messages sent.").Add(1234)
	g := r.Gauge("macedon_nodes_alive", "Nodes currently alive.")
	g.Set(32)
	r.GaugeFunc("macedon_uptime_seconds", "Seconds since start.", func() float64 { return 12.5 })
	h := r.Histogram("macedon_op_latency_seconds", "End-to-end op latency.", []float64{0.01, 0.1, 1}, L("phase", "churn"))
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	repo.RecordGolden(t, repo.Path("testdata", "golden", "obs-exposition.txt"), r.Text())
}

func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.", L("x", "1")).Add(5)
	h := r.Histogram("lat_seconds", "L.", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(3)
	text := r.Text()
	sc, err := ParseText([]byte(text))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if sc.Types["a_total"] != "counter" || sc.Types["lat_seconds"] != "histogram" {
		t.Fatalf("types: %v", sc.Types)
	}
	// One counter sample + 3 buckets + sum + count.
	if len(sc.Samples) != 6 {
		t.Fatalf("samples: got %d want 6: %v", len(sc.Samples), sc.Samples)
	}
	f := NewFleet()
	f.Add(sc)
	f.Add(sc)
	doubled, err := ParseText([]byte(f.Text()))
	if err != nil {
		t.Fatalf("ParseText(fleet): %v", err)
	}
	for _, s := range doubled.Samples {
		if s.Name == "a_total" && s.Value != 10 {
			t.Errorf("fleet sum: a_total = %v, want 10", s.Value)
		}
		if s.Name == "lat_seconds_count" && s.Value != 4 {
			t.Errorf("fleet sum: lat_seconds_count = %v, want 4", s.Value)
		}
	}
}
