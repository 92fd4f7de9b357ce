package harness

import (
	"time"

	"macedon/internal/obs"
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
	// SeriesCap bounds each phase's series ring; 0 selects
	// obs.DefaultSeriesCap.
	SeriesCap int
}

// seriesLead are the scheduler quantities the emulator puts in front of the
// engine's own time-series columns. Both are deterministic functions of the
// executed-event prefix, so sampling them at barrier instants is
// shard-invariant.
var seriesLead = []string{"events", "pending"}

// scheduleObsSeries schedules one phase's time-series samples: the start
// and end boundaries plus every intra-phase interval point. Samples are
// read-only global-actor events scheduled after the phase's ops and
// end-of-phase snapshot at the same instants (a later global sequence
// number preserves relative order), so turning them on never perturbs the
// legacy trace or report, and each sample reads engine state at a fixed
// position in the shard-count-independent total order.
func (r *simRun) scheduleObsSeries(pi int, base time.Duration) {
	ph := r.sched.Phases[pi]
	sample := func(at time.Duration) {
		r.c.Sched.After(at-base, func() {
			r.eng.Sample(pi, at-ph.Start, float64(r.c.Sched.Executed()), float64(r.c.Sched.Pending()))
		})
	}
	sample(ph.Start)
	if iv := r.obs.SeriesInterval; iv > 0 {
		for t := ph.Start + iv; t < ph.End; t += iv {
			sample(t)
		}
	}
	sample(ph.End)
}

// mirrorSched stores the scheduler's own counters as the macedon_sched_*
// families at report time, a quiescent point. Every value is
// shard-invariant — executed/pending events and the pool recycler are pure
// functions of the total event order, and barrier stall accrues the same
// virtual-time quantity per global-actor instant in both the sequential and
// the sharded loop — so the merged exposition is byte-identical at any
// shard count.
func (r *simRun) mirrorSched(reg *obs.Registry) {
	sc := r.c.Sched
	reg.Counter("macedon_sched_events_total", "Events the scheduler executed.").Store(sc.Executed())
	reg.Gauge("macedon_sched_heap_depth", "Events pending in the scheduler heaps at run end.").Set(float64(sc.Pending()))
	reg.Counter("macedon_sched_barrier_stall_ns_total", "Virtual nanoseconds global-actor barriers sat ahead of the engine frontier.").Store(uint64(sc.BarrierStall()))
	util := 0.0
	if el := sc.Elapsed().Seconds(); el > 0 {
		util = float64(sc.Executed()) / el
	}
	reg.Gauge("macedon_sched_window_utilization", "Events executed per virtual second: the density the lookahead windows carried.").Set(util)
	pool := r.c.Net.PoolStats()
	reg.Counter("macedon_sched_pool_gets_total", "Packet records requested from the per-shard pools.").Store(pool.Gets)
	reg.Counter("macedon_sched_pool_recycled_total", "Terminal packets recycled for reuse.").Store(pool.Recycled)
	reg.Counter("macedon_sched_pool_pinned_total", "Terminal packets pinned by a snapshot generation.").Store(pool.Pinned)
}
