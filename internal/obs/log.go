package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level grades event records.
type Level uint8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "unknown"
}

// Field is one key=value pair on a record.
type Field struct {
	Key   string
	Value string
}

// F builds a field, formatting the value with %v.
func F(k string, v any) Field { return Field{Key: k, Value: fmt.Sprintf("%v", v)} }

// Record is one structured event. At is virtual elapsed time in the
// emulator and wall-clock-since-start in live; either way it renders
// deterministically given the same run.
type Record struct {
	At     time.Duration
	Level  Level
	Name   string
	Fields []Field
}

// String renders the record as one canonical line:
// `t=1.234567s lvl=info ev=name k=v ...`.
func (r Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%.6fs lvl=%s ev=%s", r.At.Seconds(), r.Level, r.Name)
	for _, f := range r.Fields {
		v := f.Value
		if strings.ContainsAny(v, " \t\n\"") {
			v = fmt.Sprintf("%q", v)
		}
		fmt.Fprintf(&b, " %s=%s", f.Key, v)
	}
	return b.String()
}

// Sampler decides which events an EventLog keeps. Implementations must be
// safe for concurrent use.
type Sampler interface {
	// Admit reports whether the event named name with sampling key key
	// should be recorded. The key is an event-specific stable identifier
	// (an op ID, a node index) — NOT a sequence number — so that the
	// decision is independent of arrival order.
	Admit(name string, key uint64) bool
}

// KeySampler admits events whose hashed key falls in a 1-in-N slice. The
// decision depends only on (Seed, key): two runs of the same scenario at
// different shard counts, or one emulated and one live run with the same
// seed, sample the same population. N <= 1 admits everything.
type KeySampler struct {
	Seed uint64
	N    uint64
}

// Admit implements Sampler.
func (s KeySampler) Admit(_ string, key uint64) bool {
	if s.N <= 1 {
		return true
	}
	return splitmix64(s.Seed^key)%s.N == 0
}

// TokenBucket is a wall-clock rate sampler for the live backend: at most
// Rate admissions per second with a burst of Burst. Now is injectable for
// tests and defaults to time.Now.
type TokenBucket struct {
	Rate  float64
	Burst float64
	Now   func() time.Time

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// Admit implements Sampler.
func (t *TokenBucket) Admit(string, uint64) bool {
	now := time.Now
	if t.Now != nil {
		now = t.Now
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := now()
	if t.last.IsZero() {
		t.tokens = t.Burst
	} else {
		t.tokens += n.Sub(t.last).Seconds() * t.Rate
		if t.tokens > t.Burst {
			t.tokens = t.Burst
		}
	}
	t.last = n
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}

// EventLog retains sampled structured records and optionally tees their
// rendered lines to a writer as they arrive.
type EventLog struct {
	mu      sync.Mutex
	sampler Sampler
	min     Level
	w       io.Writer
	cap     int // ring capacity; 0 = unbounded
	recs    []Record
	dropped uint64
}

// NewEventLog builds a log that keeps records admitted by sampler (nil
// admits everything) at or above min.
func NewEventLog(sampler Sampler, min Level) *EventLog {
	return &EventLog{sampler: sampler, min: min}
}

// SetWriter tees admitted records to w as rendered lines.
func (l *EventLog) SetWriter(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w = w
}

// SetCap bounds retention to the most recent n records (ring semantics).
func (l *EventLog) SetCap(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cap = n
}

// Emit records one event if it clears the level gate and the sampler.
// key is the event's stable sampling key (see Sampler.Admit).
func (l *EventLog) Emit(key uint64, lvl Level, name string, fields ...Field) {
	if l == nil || lvl < l.min {
		return
	}
	if l.sampler != nil && !l.sampler.Admit(name, key) {
		return
	}
	rec := Record{Level: lvl, Name: name, Fields: fields}
	l.append(rec)
}

// EmitAt is Emit with an explicit timestamp (virtual time in the emulator).
func (l *EventLog) EmitAt(at time.Duration, key uint64, lvl Level, name string, fields ...Field) {
	if l == nil || lvl < l.min {
		return
	}
	if l.sampler != nil && !l.sampler.Admit(name, key) {
		return
	}
	l.append(Record{At: at, Level: lvl, Name: name, Fields: fields})
}

func (l *EventLog) append(rec Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w != nil {
		fmt.Fprintln(l.w, rec.String())
	}
	if l.cap > 0 && len(l.recs) >= l.cap {
		copy(l.recs, l.recs[1:])
		l.recs[len(l.recs)-1] = rec
		l.dropped++
		return
	}
	l.recs = append(l.recs, rec)
}

// Records returns a copy of the retained records in arrival order.
func (l *EventLog) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.recs...)
}

// Lines returns the retained records rendered one per line.
func (l *EventLog) Lines() []string {
	recs := l.Records()
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.String()
	}
	return out
}

// Dropped returns how many records the ring evicted.
func (l *EventLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}
