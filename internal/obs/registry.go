package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotone atomic counter. It is a named uint64 — not an
// atomic.Uint64 — on purpose: statecopy captures and restores plain
// integer kinds, so engine counters embedded in forkable node state rewind
// correctly across checkpoint/restore, while sync/atomic struct types are
// deliberately skipped by the walker. Always use counters through the
// pointer the registry (or the owning struct) hands out.
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() { atomic.AddUint64((*uint64)(c), 1) }

// Add adds n.
func (c *Counter) Add(n uint64) { atomic.AddUint64((*uint64)(c), n) }

// Store overwrites the value: used by snapshot mirrors that copy an
// externally-accumulated total into the registry at a quiescent point.
func (c *Counter) Store(n uint64) { atomic.StoreUint64((*uint64)(c), n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return atomic.LoadUint64((*uint64)(c)) }

// Gauge is an atomic float64 (stored as bits).
type Gauge uint64

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { atomic.StoreUint64((*uint64)(g), math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(atomic.LoadUint64((*uint64)(g))) }

// Histogram is a fixed-bucket histogram: cumulative-on-exposition bucket
// counts plus an integer-nano sum. Observations are atomic adds, so the
// final counts of a sharded deterministic run are identical at any shard
// count — and the sum is accumulated in rounded nano-units precisely so
// that no float-addition ordering can make two equivalent runs differ.
type Histogram struct {
	bounds   []float64 // ascending upper bounds; +Inf is implicit
	counts   []Counter // len(bounds)+1, per-bucket (non-cumulative)
	count    Counter
	sumNanos Counter // sum of round(v * 1e9)
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]Counter, len(bounds)+1),
	}
}

// Bucket is the index of the bucket a histogram over bounds counts v in:
// the smallest bound >= v (Prometheus `le` semantics: bounds are
// inclusive), len(bounds) for the +Inf overflow.
func Bucket(bounds []float64, v float64) int { return sort.SearchFloat64s(bounds, v) }

// Observe records v.
func (h *Histogram) Observe(v float64) {
	h.counts[Bucket(h.bounds, v)].Inc()
	h.count.Inc()
	h.sumNanos.Add(uint64(math.Round(v * 1e9)))
}

// Merge adds observations tallied elsewhere — per-bucket counts indexed by
// Bucket over the same bounds, and their sum in nano-units — so a hot path
// can count into plain memory it owns and fold it in at report time.
func (h *Histogram) Merge(counts []uint64, sumNanos uint64) {
	for i, c := range counts {
		h.counts[i].Add(c)
		h.count.Add(c)
	}
	h.sumNanos.Add(sumNanos)
}

// HistSnapshot is a histogram's point-in-time copy.
type HistSnapshot struct {
	Bounds []float64
	// Counts holds per-bucket (non-cumulative) counts; the last entry is
	// the +Inf overflow bucket.
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    float64(h.sumNanos.Load()) / 1e9,
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// String renders the snapshot as one deterministic line.
func (s HistSnapshot) String() string {
	var b strings.Builder
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		bound := "+Inf"
		if i < len(s.Bounds) {
			bound = formatFloat(s.Bounds[i])
		}
		fmt.Fprintf(&b, "le=%s:%d ", bound, cum)
	}
	fmt.Fprintf(&b, "sum=%s count=%d", formatFloat(s.Sum), s.Count)
	return b.String()
}

// LatencyBuckets are the default operation-latency bounds, in seconds.
var LatencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// HopBuckets are the default per-operation hop-count bounds.
var HopBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// Label is one metric dimension.
type Label struct{ Key, Value string }

// L is shorthand for building a label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// kind tags a family for the TYPE exposition line.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled sample stream of a family.
type series struct {
	labels string // canonical rendered label set ("" or `{a="x",b="y"}`)
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family is one metric family: a name, a type, and its labeled series.
type family struct {
	name, help string
	kind       kind
	series     map[string]*series
}

// Registry is a set of metric families with atomic hot-path handles and
// deterministic Prometheus text-format exposition.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// renderLabels canonicalizes a label set (sorted by key).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	cp := append([]Label(nil), labels...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Key < cp[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range cp {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns (creating if needed) the family and series for a handle
// request, enforcing kind consistency.
func (r *Registry) lookup(name, help string, k kind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.fams[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: family %q registered as %s, requested as %s", name, f.kind, k))
	}
	ls := renderLabels(labels)
	s, ok := f.series[ls]
	if !ok {
		s = &series{labels: ls}
		f.series[ls] = s
	}
	return s
}

// Counter returns the counter handle for name+labels, registering it on
// first use. Handle resolution takes a lock; the handle itself is atomic.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	if s.c == nil && s.fn == nil {
		s.c = new(Counter)
	}
	return s.c
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time: the collector pattern, used where an existing
// accumulator (engine counters, socket stats) is the source of truth.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, kindCounter, labels)
	s.fn = fn
	s.c = nil
}

// Gauge returns the gauge handle for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, labels)
	if s.g == nil && s.fn == nil {
		s.g = new(Gauge)
	}
	return s.g
}

// GaugeFunc registers a gauge evaluated at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, kindGauge, labels)
	s.fn = fn
	s.g = nil
}

// Histogram returns the histogram handle for name+labels, creating it with
// the given bounds on first use.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels)
	if s.h == nil {
		s.h = NewHistogram(bounds)
	}
	return s.h
}

// Families returns the sorted family names.
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.fams))
	for n := range r.fams {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// formatFloat renders a float the same way everywhere: shortest
// round-trippable form, so exposition output is diffable.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Text renders the registry in Prometheus text exposition format,
// deterministically: families sorted by name, series sorted by canonical
// label string, histogram buckets cumulative with an explicit +Inf.
func (r *Registry) Text() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		f := r.fams[n]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch {
			case f.kind == kindHistogram && s.h != nil:
				writeHistogram(&b, f.name, k, s.h.Snapshot())
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, k, formatFloat(s.fn()))
			case s.c != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, k, s.c.Load())
			case s.g != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, k, formatFloat(s.g.Load()))
			}
		}
	}
	return b.String()
}

// writeHistogram emits one histogram series in exposition form.
func writeHistogram(b *strings.Builder, name, labels string, s HistSnapshot) {
	// Re-open the label set to append le.
	open := "{"
	if labels != "" {
		open = labels[:len(labels)-1] + ","
	}
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		bound := "+Inf"
		if i < len(s.Bounds) {
			bound = formatFloat(s.Bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket%sle=%q} %d\n", name, open, bound, cum)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(s.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, s.Count)
}
