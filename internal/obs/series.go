package obs

import (
	"fmt"
	"strings"
	"time"
)

// SeriesPoint is one sample of a Series: a phase-relative virtual-time
// offset and one value per column.
type SeriesPoint struct {
	At     time.Duration
	Values []float64
}

// Series is a fixed-capacity ring of (virtual-time, snapshot) samples with
// a named column per tracked quantity. Sampling happens at deterministic
// virtual-time instants (phase boundaries plus a configurable intra-phase
// interval), so two runs of the same scenario — at any shard count —
// produce identical series. When the ring is full the oldest point is
// evicted; Dropped counts evictions so renderers can say so instead of
// silently truncating.
type Series struct {
	cols    []string
	cap     int
	pts     []SeriesPoint
	head    int // next write slot when full
	dropped int
}

// DefaultSeriesCap is the capacity the scenario engine gives every phase's
// series: the one value in use.
const DefaultSeriesCap = 256

// NewSeries builds an empty series over the given columns with the given
// point capacity (DefaultSeriesCap if capacity <= 0).
func NewSeries(cols []string, capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultSeriesCap
	}
	return &Series{cols: append([]string(nil), cols...), cap: capacity}
}

// Clone copies the series; recorded points are never modified, so the two
// share them.
func (s *Series) Clone() *Series {
	c := *s
	c.pts = append([]SeriesPoint(nil), s.pts...)
	return &c
}

// Columns returns the column names.
func (s *Series) Columns() []string { return s.cols }

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.pts) }

// Append records one sample. len(values) must equal len(cols).
func (s *Series) Append(at time.Duration, values ...float64) {
	if len(values) != len(s.cols) {
		panic(fmt.Sprintf("obs: series append: %d values for %d columns", len(values), len(s.cols)))
	}
	p := SeriesPoint{At: at, Values: append([]float64(nil), values...)}
	if len(s.pts) < s.cap {
		s.pts = append(s.pts, p)
		return
	}
	s.pts[s.head] = p
	s.head = (s.head + 1) % s.cap
	s.dropped++
}

// Dropped returns how many points were evicted by the ring.
func (s *Series) Dropped() int { return s.dropped }

// Snapshot copies the series oldest-first.
func (s *Series) Snapshot() SeriesSnapshot {
	out := SeriesSnapshot{
		Columns: append([]string(nil), s.cols...),
		Points:  make([]SeriesPoint, 0, len(s.pts)),
		Dropped: s.dropped,
	}
	for i := 0; i < len(s.pts); i++ {
		p := s.pts[(s.head+i)%len(s.pts)]
		out.Points = append(out.Points, SeriesPoint{At: p.At, Values: append([]float64(nil), p.Values...)})
	}
	return out
}

// SeriesSnapshot is a series' point-in-time copy, oldest-first.
type SeriesSnapshot struct {
	Columns []string
	Points  []SeriesPoint
	Dropped int
}

// Lines renders the snapshot deterministically, one point per line:
//
//	t=+1.000000s events=42 pending=3
//
// using the same float formatting as the exposition renderer.
func (s SeriesSnapshot) Lines() []string {
	out := make([]string, 0, len(s.Points)+1)
	for _, p := range s.Points {
		var b strings.Builder
		fmt.Fprintf(&b, "t=%.6fs", p.At.Seconds())
		for i, c := range s.Columns {
			fmt.Fprintf(&b, " %s=%s", c, formatFloat(p.Values[i]))
		}
		out = append(out, b.String())
	}
	if s.Dropped > 0 {
		out = append(out, fmt.Sprintf("(ring dropped %d older points)", s.Dropped))
	}
	return out
}

// Column returns the values of one named column, oldest-first, and whether
// the column exists.
func (s SeriesSnapshot) Column(name string) ([]float64, bool) {
	for i, c := range s.Columns {
		if c == name {
			out := make([]float64, len(s.Points))
			for j, p := range s.Points {
				out[j] = p.Values[i]
			}
			return out, true
		}
	}
	return nil, false
}

// sparkRunes are the eight-level bar glyphs Sparkline draws with.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a unicode bar string scaled to the value
// range; a flat series renders as all-low bars. Deterministic: pure
// function of the input.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}
