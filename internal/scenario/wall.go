package scenario

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// WallExecutor receives a schedule's operations and boundaries as they fire
// in wall-clock time. Callbacks run sequentially on the runner's goroutine,
// in deterministic order; a slow callback delays everything behind it. The
// deploy controller implements it by taking its lock around the shared
// Engine's methods of the same names.
type WallExecutor interface {
	// Apply executes one schedule operation. An error stops the run.
	Apply(op Op) error
	// SettleEnd marks the settle boundary: phase 0 starts now and baseline
	// counter snapshots should be taken.
	SettleEnd()
	// PhaseEnd marks the end of phase pi: snapshot its counters.
	PhaseEnd(pi int)
}

// WallRunner executes a compiled schedule against the wall clock, the way
// the emulator's scheduler executes it in virtual time. The schedule itself is substrate-neutral — operations with absolute virtual
// offsets — so the same compiled scenario (same seed, same ops, same churn
// victims, same lookup keys) that drives an emulated run drives a live
// deployment, just on real time (docs/deploy.md: scenario-to-wall-clock
// mapping).
//
// Speed divides every offset: at Speed 2 a "10s" phase lasts five wall
// seconds. Speeds above 1 compress the experiment timeline but NOT
// protocol timers, which tick in real time inside each node — keep the
// compression modest (≤5) or convergence-dependent phases lose meaning.
type WallRunner struct {
	sched *Schedule
	speed float64
	exec  WallExecutor
}

// NewWallRunner builds a runner. Speed <= 0 selects 1 (real time).
func NewWallRunner(sched *Schedule, speed float64, exec WallExecutor) *WallRunner {
	if speed <= 0 {
		speed = 1
	}
	return &WallRunner{sched: sched, speed: speed, exec: exec}
}

// wallEvent is one timeline entry: an op or a boundary marker.
type wallEvent struct {
	at    time.Duration
	class int // 0 = op, 1 = settle marker, 2 = phase end
	seq   int // emission order, the tie-break
	op    Op
	phase int
}

// timeline merges ops and boundary markers into one At-ordered sequence.
// At equal instants ops fire before boundary markers, and ops keep the
// schedule's (phase, time, emission) order — exactly how the virtual-time
// engine interleaves them (ops schedule before each phase's snapshot).
func (r *WallRunner) timeline() []wallEvent {
	evs := make([]wallEvent, 0, len(r.sched.Ops)+len(r.sched.Phases)+1)
	for i, op := range r.sched.Ops {
		evs = append(evs, wallEvent{at: op.At, class: 0, seq: i, op: op})
	}
	evs = append(evs, wallEvent{at: r.sched.Settle, class: 1, seq: len(evs)})
	for pi, cp := range r.sched.Phases {
		evs = append(evs, wallEvent{at: cp.End, class: 2, seq: len(evs), phase: pi})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].class < evs[j].class
	})
	return evs
}

// Run executes the schedule to its Total boundary (including the drain
// window), until ctx is cancelled, or until an op fails: the first Apply
// error ends the run at once and comes back wrapped with the op it belongs
// to. The wall clock of a whole run is roughly Total/Speed.
func (r *WallRunner) Run(ctx context.Context) error {
	start := time.Now()
	for _, ev := range r.timeline() {
		if err := r.sleepUntil(ctx, start, ev.at); err != nil {
			return err
		}
		switch ev.class {
		case 0:
			if err := r.exec.Apply(ev.op); err != nil {
				return fmt.Errorf("scenario: %s node %d at %s: %w", ev.op.Kind, ev.op.Node, ev.op.At, err)
			}
		case 1:
			r.exec.SettleEnd()
		case 2:
			r.exec.PhaseEnd(ev.phase)
		}
	}
	return r.sleepUntil(ctx, start, r.sched.Total)
}

// sleepUntil waits until virtual offset at (scaled by speed) has elapsed
// since start.
func (r *WallRunner) sleepUntil(ctx context.Context, start time.Time, at time.Duration) error {
	target := time.Duration(float64(at) / r.speed)
	wait := target - time.Since(start)
	if wait <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("scenario: wall-clock run aborted at %s: %w", at, ctx.Err())
	}
}
