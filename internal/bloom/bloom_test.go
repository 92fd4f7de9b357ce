package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1024, 4)
	for i := uint64(0); i < 100; i++ {
		f.Add(i * 7919)
	}
	for i := uint64(0); i < 100; i++ {
		if !f.Contains(i * 7919) {
			t.Fatalf("false negative for %d", i*7919)
		}
	}
	if f.Count() != 100 {
		t.Fatalf("Count = %d", f.Count())
	}
}

// Property: anything added is always contained, regardless of geometry.
func TestNoFalseNegativesQuick(t *testing.T) {
	check := func(keys []uint64) bool {
		f := New(256, 3)
		for _, k := range keys {
			f.Add(k)
		}
		for _, k := range keys {
			if !f.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFalsePositiveRate: a filter of the optimal geometry for n = 1000
// elements at a 1 % false-positive rate, m = -n·ln(p)/ln(2)² = 9,586 bits and
// k = (m/n)·ln(2) ≈ 7 hash functions, stays near that rate.
func TestFalsePositiveRate(t *testing.T) {
	const n = 1000
	f := New(9586, 7)
	rng := rand.New(rand.NewSource(1))
	inserted := make(map[uint64]bool, n)
	for len(inserted) < n {
		k := rng.Uint64()
		inserted[k] = true
		f.Add(k)
	}
	fp := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		k := rng.Uint64()
		if inserted[k] {
			continue
		}
		if f.Contains(k) {
			fp++
		}
	}
	rate := float64(fp) / trials
	if rate > 0.05 {
		t.Fatalf("false positive rate %.4f far above designed 0.01", rate)
	}
}

func TestClear(t *testing.T) {
	f := New(128, 2)
	f.Add(1)
	f.Add(2)
	f.Clear()
	if f.Count() != 0 || f.Contains(1) || f.Contains(2) {
		t.Fatalf("Clear left state: count=%d contains(1)=%v contains(2)=%v", f.Count(), f.Contains(1), f.Contains(2))
	}
}

func TestEstimateDisjointness(t *testing.T) {
	a, b := New(4096, 4), New(4096, 4)
	for i := uint64(0); i < 100; i++ {
		a.Add(i)
		b.Add(i + 1000) // fully disjoint sets
	}
	if d := a.EstimateDisjointness(b); d < 0.8 {
		t.Fatalf("disjoint sets estimate = %f, want near 1", d)
	}
	same := New(4096, 4)
	for i := uint64(0); i < 100; i++ {
		same.Add(i)
	}
	if d := a.EstimateDisjointness(same); d > 0.2 {
		t.Fatalf("identical sets estimate = %f, want near 0", d)
	}
	if d := a.EstimateDisjointness(New(4096, 4)); d != 0 {
		t.Fatalf("empty other estimate = %f, want 0", d)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := New(512, 5)
	for i := uint64(0); i < 50; i++ {
		f.Add(i * 13)
	}
	enc, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Filter
	if err := g.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if g.M() != f.M() || g.K() != f.K() || g.Count() != f.Count() {
		t.Fatalf("geometry lost: %d/%d/%d vs %d/%d/%d", g.M(), g.K(), g.Count(), f.M(), f.K(), f.Count())
	}
	for i := uint64(0); i < 50; i++ {
		if !g.Contains(i * 13) {
			t.Fatalf("decoded filter lost element %d", i*13)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	var f Filter
	if err := f.UnmarshalBinary(nil); err == nil {
		t.Fatal("nil input should fail")
	}
	if err := f.UnmarshalBinary(make([]byte, 12)); err == nil {
		t.Fatal("zero-geometry input should fail")
	}
	good, _ := New(128, 2).MarshalBinary()
	if err := f.UnmarshalBinary(good[:len(good)-1]); err == nil {
		t.Fatal("truncated input should fail")
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,0) should panic")
		}
	}()
	New(0, 0)
}
