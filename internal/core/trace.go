package core

import (
	"fmt"
	"io"
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

// obsLevel maps the grammar's trace levels onto obs log levels: low is the
// important stuff (state changes, failures), med/high are engine debug.
func obsLevel(l TraceLevel) obs.Level {
	if l == TraceLow {
		return obs.LevelInfo
	}
	return obs.LevelDebug
}

// traceEpoch anchors trace record timestamps: Record.At is the offset from
// the Unix epoch, so both wall clocks and the emulator's virtual clock
// (which also starts at a fixed origin) produce stable offsets.
var traceEpoch = time.Unix(0, 0)

// tracerRing bounds how many recent trace records a tracer retains.
const tracerRing = 512

// Tracer serializes trace lines from a node. It is a thin shim over an
// obs.EventLog: lines ride the obs pipeline, while a render hook preserves
// the historical `15:04:05.000000 message` byte format the golden traces
// pin down. A node with tracing off holds none: every method is nil-safe.
type Tracer struct {
	log   *obs.EventLog
	level TraceLevel
}

func newTracer(w io.Writer, level TraceLevel) *Tracer {
	l := obs.NewEventLog(nil, obs.LevelDebug)
	l.SetCap(tracerRing)
	l.SetRender(func(r obs.Record) string {
		if len(r.Fields) >= 2 {
			return r.Fields[0].Value + " " + r.Fields[1].Value
		}
		return r.String()
	})
	l.SetWriter(w)
	return &Tracer{log: l, level: level}
}

// Enabled reports whether lines at level l are emitted.
func (t *Tracer) Enabled(l TraceLevel) bool {
	return t != nil && l != TraceOff && l <= t.level
}

func (t *Tracer) tracef(l TraceLevel, at time.Time, format string, args ...any) {
	if !t.Enabled(l) {
		return
	}
	t.log.EmitAt(at.Sub(traceEpoch), 0, obsLevel(l), "trace",
		obs.F("at", at.Format("15:04:05.000000")),
		obs.F("msg", fmt.Sprintf(format, args...)))
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
