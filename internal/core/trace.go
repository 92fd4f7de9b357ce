package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"macedon/internal/obs"
)

// TraceLevel is the grammar's four-level tracing header ("trace_ off | low |
// med | high").
type TraceLevel uint8

const (
	// TraceOff disables tracing.
	TraceOff TraceLevel = iota
	// TraceLow records state changes and failures.
	TraceLow
	// TraceMed additionally records every transition dispatch.
	TraceMed
	// TraceHigh additionally records sends, timers, and upcalls.
	TraceHigh
)

// String returns the grammar keyword for the level.
func (l TraceLevel) String() string {
	switch l {
	case TraceOff:
		return "off"
	case TraceLow:
		return "low"
	case TraceMed:
		return "med"
	case TraceHigh:
		return "high"
	}
	return fmt.Sprintf("TraceLevel(%d)", uint8(l))
}

// Tracer writes a node's trace lines, `15:04:05.000000 message` each, the
// format the golden traces pin. A node with tracing off holds none: every
// method is nil-safe.
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	level TraceLevel
}

func newTracer(w io.Writer, level TraceLevel) *Tracer { return &Tracer{w: w, level: level} }

// Enabled reports whether lines at level l are emitted.
func (t *Tracer) Enabled(l TraceLevel) bool {
	return t != nil && l != TraceOff && l <= t.level
}

func (t *Tracer) tracef(l TraceLevel, at time.Time, format string, args ...any) {
	if !t.Enabled(l) {
		return
	}
	line := at.Format("15:04:05.000000") + " " + fmt.Sprintf(format, args...) + "\n"
	t.mu.Lock()
	defer t.mu.Unlock()
	_, _ = io.WriteString(t.w, line)
}

// Counters aggregates per-instance engine statistics: the built-in metric
// tracking the paper lists among MACEDON's evaluation facilities. It is a
// plain snapshot struct; the live accumulator behind it is counterSet.
type Counters struct {
	MsgsSent    uint64
	MsgsRecv    uint64
	BytesSent   uint64
	BytesRecv   uint64
	TimerFires  uint64
	Transitions uint64
	Unhandled   uint64 // events with no matching transition in this state
	Delivered   uint64 // deliver upcalls issued
	Forwarded   uint64 // forward upcalls issued
	Failures    uint64 // error transitions invoked by the failure detector
}

// counterSet is the live per-instance accumulator: one obs.Counter per
// statistic, incremented atomically so concurrent readers (live agents
// polling metrics while socket goroutines dispatch, the sharded emulator
// under read-locked data transitions) never race the hot path. obs.Counter
// is a plain named uint64, which is what lets statecopy checkpoint/restore
// rewind these across sweep forks.
type counterSet struct {
	MsgsSent    obs.Counter
	MsgsRecv    obs.Counter
	BytesSent   obs.Counter
	BytesRecv   obs.Counter
	TimerFires  obs.Counter
	Transitions obs.Counter
	Unhandled   obs.Counter
	Delivered   obs.Counter
	Forwarded   obs.Counter
	Failures    obs.Counter
}

// snapshot loads every counter atomically into the public snapshot struct.
func (c *counterSet) snapshot() Counters {
	return Counters{
		MsgsSent:    c.MsgsSent.Load(),
		MsgsRecv:    c.MsgsRecv.Load(),
		BytesSent:   c.BytesSent.Load(),
		BytesRecv:   c.BytesRecv.Load(),
		TimerFires:  c.TimerFires.Load(),
		Transitions: c.Transitions.Load(),
		Unhandled:   c.Unhandled.Load(),
		Delivered:   c.Delivered.Load(),
		Forwarded:   c.Forwarded.Load(),
		Failures:    c.Failures.Load(),
	}
}
