package harness

import (
	"fmt"
	"strings"
	"time"

	"macedon/internal/scenario"
)

// Checkpoint/fork scenario execution (docs/sweeps.md). The expensive part of
// every overlay evaluation is the settled prefix — joins plus convergence —
// and a comparative sweep re-simulates it once per variant. RunSweep runs
// each group of variants that share a byte-identical prefix on one cluster:
// prefix once, checkpoint, then rewind-and-branch per variant. Every branch
// trace is byte-identical to the same variant executed cold, which the
// golden corpus gates.

// forkTime returns the fork instant of a schedule: the settle boundary, or
// the end of the fork-point phase.
func forkTime(sched *scenario.Schedule, forkPhase int) time.Duration {
	if forkPhase < 0 {
		return sched.Settle
	}
	return sched.Phases[forkPhase].End
}

// prefixEpsilon is how far before the fork instant the shared prefix stops
// executing. Ops scheduled exactly at the fork instant belong to the
// branches; running the prefix one nanosecond shy of it leaves them (and the
// settle-boundary snapshot) queued for every branch to execute identically.
const prefixEpsilon = time.Nanosecond

// forkVariant is one resolved member of a fork group.
type forkVariant struct {
	name  string
	s     *scenario.Scenario
	sched *scenario.Schedule
}

// prefixKey fingerprints everything that determines a scenario's behavior up
// to its fork instant: the cluster configuration, the protocol stack, the
// multicast group setup, the prefix phase boundaries, and the full prefix op
// list. Variants with equal keys are guaranteed byte-identical prefixes and
// may share one.
func prefixKey(s *scenario.Scenario, sched *scenario.Schedule, forkPhase, shards int) string {
	forkT := forkTime(sched, forkPhase)
	// The multicast group only exists (and only influences the prefix — every
	// member joins it during setup) when some phase runs a multicast
	// workload; otherwise GroupName's fallback to the per-variant scenario
	// name must not split the group.
	groupName := ""
	if s.NeedsGroup() {
		groupName = s.GroupName()
	}
	var key strings.Builder
	fmt.Fprintf(&key, "nodes=%d routers=%d seed=%d proto=%q shards=%d hb=%v fail=%v settle=%v fork=%d@%v group=%v/%q phases=[",
		s.Nodes, s.Routers, s.Seed, s.Protocol, shards,
		s.HeartbeatAfter.D(), s.FailAfter.D(), sched.Settle,
		forkPhase, forkT, s.NeedsGroup(), groupName)
	for pi := 0; pi <= forkPhase && pi < len(sched.Phases); pi++ {
		fmt.Fprintf(&key, "(%v,%v)", sched.Phases[pi].Start, sched.Phases[pi].End)
	}
	key.WriteString("] ops=[")
	for _, op := range sched.Ops {
		if op.Phase > forkPhase {
			continue
		}
		fmt.Fprintf(&key, "%+v;", op)
	}
	key.WriteString("]")
	return key.String()
}

// forkGroupTiming reports the wall clock a shared-prefix group consumed.
type forkGroupTiming struct {
	prefix   time.Duration
	branches []time.Duration
}

// runForkedGroup executes variants that share one prefix: run the prefix
// once on a fresh cluster, checkpoint, then branch per variant (restoring
// the checkpoint between branches). Reports come back in variant order.
func runForkedGroup(vs []forkVariant, shards, forkPhase int) ([]*scenario.Report, forkGroupTiming, error) {
	var timing forkGroupTiming
	base := vs[0]
	r, err := newSimRun(base.sched, ExecOptions{Shards: shards})
	if err != nil {
		return nil, timing, err
	}
	defer r.c.StopAll()

	start := time.Now()
	forkT := forkTime(base.sched, forkPhase)
	r.scheduleSetup()
	if forkPhase >= 0 {
		r.schedulePhases(0, forkPhase)
	}
	r.c.RunFor(forkT - prefixEpsilon)
	cp := r.c.Checkpoint()
	at := r.eng.Checkpoint()
	timing.prefix = time.Since(start)

	var reps []*scenario.Report
	for vi, v := range vs {
		bstart := time.Now()
		if vi > 0 {
			r.c.Restore(cp)
		}
		// Point the run at the variant and rewind the engine's accounting to
		// the fork state, as Restore rewound the world.
		r.sched = v.sched
		if err := r.eng.Branch(v.sched, at); err != nil {
			return nil, timing, fmt.Errorf("sweep variant %q: %w", v.name, err)
		}
		if forkPhase+1 < len(v.sched.Phases) {
			r.schedulePhases(forkPhase+1, len(v.sched.Phases)-1)
		}
		r.c.RunFor(v.sched.Total - (forkT - prefixEpsilon))
		rep, err := r.report()
		if err != nil {
			return nil, timing, fmt.Errorf("sweep variant %q: %w", v.name, err)
		}
		reps = append(reps, rep)
		timing.branches = append(timing.branches, time.Since(bstart))
	}
	return reps, timing, nil
}

// RunScenarioForked executes one scenario through the checkpoint/fork
// machinery twice: shared prefix, fork, branch, rewind, branch again. Both
// returned reports must be byte-identical to RunScenarioExec on the same
// scenario — the fork-determinism property the golden corpus gates (the
// second report additionally proves a restored world replays exactly after
// a dirty branch).
func RunScenarioForked(s *scenario.Scenario, shards int) (*scenario.Report, *scenario.Report, error) {
	sched, err := scenario.Compile(s)
	if err != nil {
		return nil, nil, err
	}
	fp := s.ForkPhase()
	vs := []forkVariant{{name: "a", s: s, sched: sched}, {name: "b", s: s, sched: sched}}
	reps, _, err := runForkedGroup(vs, shards, fp)
	if err != nil {
		return nil, nil, err
	}
	return reps[0], reps[1], nil
}

// RunSweep executes a parameter sweep: the base scenario with each variant's
// overrides applied. Variants whose settled prefix is byte-identical (same
// seed, protocol, topology, and pre-fork schedule) share one simulated
// prefix via checkpoint/fork; variants that change the prefix itself (a
// different seed or protocol) run cold. defaultShards applies to variants
// without a shards override.
func RunSweep(sw *scenario.Sweep, defaultShards int) (*scenario.SweepReport, error) {
	return RunSweepExec(sw, defaultShards, ObsOptions{})
}

// RunSweepExec is RunSweep with an observability configuration. An
// obs-enabled sweep runs every variant cold: the obs plane hooks the engine
// from time zero and is not carried across a checkpoint/fork branch, so a
// forked branch could not report its own prefix metrics. Cold execution
// keeps each variant's exposition self-contained (and still deterministic).
func RunSweepExec(sw *scenario.Sweep, defaultShards int, obsOpts ObsOptions) (*scenario.SweepReport, error) {
	if defaultShards < 1 {
		defaultShards = 1
	}
	resolved, err := sw.Resolve()
	if err != nil {
		return nil, err
	}
	forkPhase := sw.Base.ForkPhase()

	type slot struct {
		v      forkVariant
		shards int
		key    string
	}
	slots := make([]slot, len(resolved))
	for i, rv := range resolved {
		sched, err := scenario.Compile(rv.Scenario)
		if err != nil {
			return nil, fmt.Errorf("sweep variant %q: %w", rv.Name, err)
		}
		shards := rv.Shards
		if shards <= 0 {
			shards = defaultShards
		}
		slots[i] = slot{
			v:      forkVariant{name: rv.Name, s: rv.Scenario, sched: sched},
			shards: shards,
			key:    prefixKey(rv.Scenario, sched, forkPhase, shards),
		}
	}

	// Group variants by prefix fingerprint, keeping first-seen order.
	groupIdx := make(map[string][]int)
	var keys []string
	for i, sl := range slots {
		if _, ok := groupIdx[sl.key]; !ok {
			keys = append(keys, sl.key)
		}
		groupIdx[sl.key] = append(groupIdx[sl.key], i)
	}

	rep := &scenario.SweepReport{
		Name:    sw.Name,
		Groups:  len(keys),
		Results: make([]scenario.SweepVariantResult, len(slots)),
	}
	totalStart := time.Now()
	for _, key := range keys {
		idxs := groupIdx[key]
		if len(idxs) == 1 || obsOpts.Enabled {
			// A lone prefix gains nothing from forking; an obs-enabled sweep
			// runs every variant cold (see RunSweepExec).
			for _, i := range idxs {
				start := time.Now()
				r, err := RunScenarioExec(slots[i].v.s, ExecOptions{Shards: slots[i].shards, Obs: obsOpts})
				if err != nil {
					return nil, fmt.Errorf("sweep variant %q: %w", slots[i].v.name, err)
				}
				rep.Results[i] = scenario.SweepVariantResult{
					Name:       slots[i].v.name,
					Protocol:   r.Protocol,
					Shards:     slots[i].shards,
					BranchWall: time.Since(start),
					Report:     r,
				}
			}
			continue
		}
		group := make([]forkVariant, len(idxs))
		for gi, i := range idxs {
			group[gi] = slots[i].v
		}
		reps, timing, err := runForkedGroup(group, slots[idxs[0]].shards, forkPhase)
		if err != nil {
			return nil, fmt.Errorf("sweep group %q: %w", group[0].name, err)
		}
		rep.ForkAt = forkTime(slots[idxs[0]].v.sched, forkPhase)
		rep.PrefixWall += timing.prefix
		rep.ColdPrefixWall += time.Duration(len(idxs)) * timing.prefix
		for gi, i := range idxs {
			rep.Results[i] = scenario.SweepVariantResult{
				Name:         group[gi].name,
				Protocol:     reps[gi].Protocol,
				Shards:       slots[i].shards,
				SharedPrefix: true,
				BranchWall:   timing.branches[gi],
				Report:       reps[gi],
			}
		}
	}
	rep.TotalWall = time.Since(totalStart)
	return rep, nil
}
