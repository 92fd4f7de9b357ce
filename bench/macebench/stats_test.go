package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.N != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Fatalf("summarize(1..10) = %+v, want n=10 q1=2.75 median=5.5 q3=8.25", s)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
	s = summarize([]float64{1, 2, 4, 8, 16})
	if s.Q1 != 1.5 || s.Median != 4 || s.Q3 != 12 {
		t.Fatalf("summarize(1,2,4,8,16) = %+v, want q1=1.5 median=4 q3=12", s)
	}
	if got := s.spread(); math.Abs(got-10.5/4) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, 10.5/4)
	}
	if s := summarize([]float64{3}); s.Q1 != 3 || s.Median != 3 || s.Q3 != 3 || s.spread() != 0 {
		t.Fatalf("single value summarized to %+v", s)
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Fatalf("no values summarized to %+v", s)
	}
}

// series is a synthetic run of seven repetitions around base with a tight,
// fixed scatter.
func series(base float64) summary {
	var v []float64
	for _, d := range []float64{-0.010, -0.006, -0.002, 0, 0.003, 0.007, 0.011} {
		v = append(v, base*(1+d))
	}
	return summarize(v)
}

func TestCompareFlagsRegressionsBeyondTheBound(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "node_sec_per_s", Unit: "node.s/s", Better: "higher", Bound: 0.10}
	a := series(2.0)
	for _, c := range []struct {
		name string
		b    summary
		m    metricSpec
		want string
	}{
		{"+12% slower is a regression", series(2.0 * 1.12), lower, verdictRegressed},
		{"+3% slower is within the bound", series(2.0 * 1.03), lower, verdictOK},
		{"12% faster is fine", series(2.0 * 0.88), lower, verdictOK},
		{"12% less throughput is a regression", series(2.0 * 0.88), higher, verdictRegressed},
		{"3% less throughput is within the bound", series(2.0 * 0.97), higher, verdictOK},
		{"12% more throughput is fine", series(2.0 * 1.12), higher, verdictOK},
	} {
		if got := compare(a, c.b, c.m); got != c.want {
			t.Errorf("%s: compare = %s (change %+.3f), want %s", c.name, got, worsening(a, c.b, c.m), c.want)
		}
	}
}

func TestCompareReportsUnresolvedWhenNoiseExceedsTheBound(t *testing.T) {
	m := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	noisy := summarize([]float64{1.6, 1.8, 2.0, 2.2, 2.4}) // quartile range 30% of the median
	if got := compare(noisy, series(2.06), m); got != verdictUnresolved {
		t.Fatalf("noisy reference: compare = %s, want %s", got, verdictUnresolved)
	}
	if got := compare(series(2.0), noisy, m); got != verdictUnresolved {
		t.Fatalf("noisy candidate: compare = %s, want %s", got, verdictUnresolved)
	}
	// A regression beyond the bound is reported as one however noisy the sets are.
	worse := summarize([]float64{2.4, 2.6, 2.8, 3.0, 3.2})
	if got := compare(noisy, worse, m); got != verdictRegressed {
		t.Fatalf("noisy regression: compare = %s, want %s", got, verdictRegressed)
	}
}

func TestSampleLayerFoldsStacksOntoLayers(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/sha1.blockAVX2", "crypto/sha1.(*digest).Write", "macedon/internal/overlay.HashAddress", "macedon/internal/overlays/genchord.(*Protocol).route", "macedon/internal/core.(*Node).post"}, "overlay"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "macedon/internal/core.(*Node).post"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.mapaccess2", "macedon/internal/simnet.(*Network).send"}, "simnet"},
		{[]string{"macedon/internal/overlays/genrandtree.(*Protocol).forward", "macedon/internal/core.(*Instance).dispatch"}, "overlays"},
		{[]string{"macedon/internal/scenario.Compile", "main.runJob"}, "harness"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}, "runtime"},
		{[]string{"encoding/json.Marshal", "main.childMain", "main.main"}, "other"},
		{nil, "other"},
	} {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	shares, total := cpuShares([]cpuSample{
		{stack: []string{"macedon/internal/core.(*Node).post"}, count: 3},
		{stack: []string{"runtime.mallocgc"}, count: 1},
	})
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if total != 4 || shares["core"] != 0.75 || shares["runtime"] != 0.25 || math.Abs(sum-1) > 1e-12 {
		t.Fatalf("cpuShares = %v (total %d, sum %v)", shares, total, sum)
	}
}

// TestBenchmarkJSONMatches keeps the contract file at the repository root
// in step with the tables this program reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(manifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		pretty, _ := json.MarshalIndent(manifest(), "", "  ")
		t.Fatalf("BENCHMARK.json differs from the program's tables; the tables say:\n%s", pretty)
	}
}

// benchManifest is the shape of BENCHMARK.json at the repository root: the
// contract an outside harness reads to run this benchmark.
type benchManifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest renders this program's tables in the contract's shape.
func manifest() benchManifest {
	m := benchManifest{
		Command:    []string{"bash", "bench/macebench/run.sh"},
		Paths:      []string{"bench/macebench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.name, w.why})
	}
	return m
}
