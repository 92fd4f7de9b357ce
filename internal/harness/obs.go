package harness

import (
	"time"

	"macedon/internal/obs"
	"macedon/internal/scenario"
)

// ObsOptions configures the observability plane of a scenario run.
type ObsOptions struct {
	// Enabled turns the obs plane on: registry, sampled event log, and
	// operation traces. Off keeps the engine byte-for-byte on its legacy
	// path (goldens).
	Enabled bool
	// TraceSample keeps 1-in-N operation traces and event-log records,
	// decided by key hash on the scenario seed so every shard count — and a
	// live run of the same scenario — samples the same population. 0 or 1
	// keeps everything.
	TraceSample int
	// SeriesInterval adds intra-phase time-series samples every interval of
	// virtual time; 0 samples only at phase boundaries. Samples are
	// global-actor events at fixed positions in the shard-count-independent
	// total order, so the series is byte-identical at any shard count.
	SeriesInterval time.Duration
}

// seriesLead are the scheduler quantities the emulator puts in front of the
// engine's own time-series columns. Both are deterministic functions of the
// executed-event prefix, so sampling them at barrier instants is
// shard-invariant.
var seriesLead = []string{"events", "pending"}

// scheduleObsSeries appends one phase's time-series samples: the start and
// end boundaries plus every intra-phase interval point. Samples are
// read-only cues appended after the phase's ops and end-of-phase snapshot,
// so at a shared instant they fire after both, and they fire from the one
// global-actor cursor: turning them on never perturbs the legacy trace or
// report, and each sample reads engine state at a fixed position in the
// shard-count-independent total order. Its pending column counts the cues
// not yet fired as the events they stand for (simRun.pending).
func (r *simRun) scheduleObsSeries(pi int) {
	ph := r.sched.Phases[pi]
	sample := func(at time.Duration) {
		r.cues = append(r.cues, scenario.Cue{At: at, I: pi, Kind: cueSample})
	}
	sample(ph.Start)
	if iv := r.obs.SeriesInterval; iv > 0 {
		for t := ph.Start + iv; t < ph.End; t += iv {
			sample(t)
		}
	}
	sample(ph.End)
}

// Families is the emulator's contribution to a report's registry: the
// engine and network totals, and the scheduler's own counters as the
// macedon_sched_* families. A report is assembled at a quiescent point, and
// every value is both shard-invariant and fork-invariant — the same whether
// the run was a lone variant or a branch from a checkpoint. Executed and
// pending events are pure functions of the total event order; barrier stall
// accrues the same virtual-time quantity per global-actor instant in the
// sequential and the sharded loop, and every run reaches its fork instant
// through the same two RunFor calls; the pool families count requests and
// terminal events, not what the recycler did with a record.
func (r *simRun) Families(reg *obs.Registry) {
	r.eng.MirrorTotals(reg)
	sc := r.c.Sched
	reg.Counter("macedon_sched_events_total", "Events the scheduler executed.").Store(sc.Executed())
	reg.Gauge("macedon_sched_heap_depth", "Events pending in the scheduler heaps at run end.").Set(float64(r.pending()))
	reg.Counter("macedon_sched_barrier_stall_ns_total", "Virtual nanoseconds global-actor barriers sat ahead of the engine frontier.").Store(uint64(sc.BarrierStall()))
	util := 0.0
	if el := sc.Elapsed().Seconds(); el > 0 {
		util = float64(sc.Executed()) / el
	}
	reg.Gauge("macedon_sched_window_utilization", "Events executed per virtual second: the density the lookahead windows carried.").Set(util)
	pool := r.c.Net.PoolStats()
	reg.Counter("macedon_sched_pool_gets_total", "Packet records requested from the per-shard pools.").Store(pool.Gets)
	// A checkpoint pins the packet generation in flight, so a branch frees
	// as "pinned" what a lone run frees as "recycled"; their sum is the
	// number of records that reached a terminal event.
	reg.Counter("macedon_sched_pool_recycled_total", "Packet records released at a terminal event (recycled, or pinned by a checkpoint): a pure function of the event order.").Store(pool.Recycled + pool.Pinned)
}
