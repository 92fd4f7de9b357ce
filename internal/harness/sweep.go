package harness

import (
	"fmt"
	"strings"
	"time"

	"macedon/internal/scenario"
)

// Scenario execution (docs/sweeps.md). The expensive part of every overlay
// evaluation is the settled prefix — joins plus convergence — and a
// comparative sweep would re-simulate it once per variant. So every run is a
// group: the variants that share a byte-identical prefix run on one cluster,
// prefix once, then one branch per variant, with a checkpoint to rewind to
// between branches when there is more than one. A single scenario is a
// group of one. Every branch's output is byte-identical to the same variant
// run on its own, which the golden corpus gates.

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
// settle-boundary snapshot) unfired for every branch to execute identically.
const prefixEpsilon = time.Nanosecond

// forkVariant is one resolved member of a group.
type forkVariant struct {
	name  string
	sched *scenario.Schedule
}

// prefixKey fingerprints everything that determines a scenario's behavior up
// to its fork instant: the cluster configuration, the protocol stack and its
// params, the multicast group setup, the prefix phase boundaries, and the
// full prefix op list. Variants with equal keys are guaranteed
// byte-identical prefixes and may share one.
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
	fmt.Fprintf(&key, "nodes=%d routers=%d sites=%d seed=%d proto=%q params=%v shards=%d hb=%v fail=%v settle=%v fork=%d@%v group=%v/%q phases=[",
		s.Nodes, s.Routers, s.Sites, s.Seed, s.Protocol, s.Params, shards,
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

// forkGroupTiming reports the wall clock a group consumed.
type forkGroupTiming struct {
	prefix   time.Duration
	branches []time.Duration
}

// runGroup is the one way a scenario executes on the emulator. It runs
// variants that share a prefix on one fresh cluster: setup and the phases up
// to forkPhase once, stopping just short of the fork instant, then per
// variant the tail phases and the drain. A group of more than one
// checkpoints at the fork and rewinds cluster and engine to it before each
// later branch; a group of one takes no checkpoint. Either way the cue list
// is built and the clock advanced in the same two steps, so a lone run and
// a branch agree even on the telemetry that counts unfired cues.
// Reports come back in variant order.
func runGroup(vs []forkVariant, exec ExecOptions, forkPhase int) ([]*scenario.Report, forkGroupTiming, error) {
	var timing forkGroupTiming
	r, err := newSimRun(vs[0].sched, exec)
	if err != nil {
		return nil, timing, err
	}
	defer r.c.StopAll()

	start := time.Now()
	prefix := forkTime(vs[0].sched, forkPhase) - prefixEpsilon
	r.schedule(-1, forkPhase)
	r.arm(0)
	r.c.RunFor(prefix)
	var cp *Checkpoint
	var at scenario.Accounting
	// Restore rewinds the cursor's timer record; the cue list rewinds to
	// its length and position at the fork. A branch leaves cues[:forkLen]
	// as it found them: its own cues go behind, and sorting them among the
	// unfired ones moves none ahead of the prefix's, which all wait at the
	// fork instant.
	var forkLen, forkNext int
	if len(vs) > 1 {
		cp, at = r.c.Checkpoint(), r.eng.Checkpoint()
		forkLen, forkNext = len(r.cues), r.next
	}
	timing.prefix = time.Since(start)

	var reps []*scenario.Report
	for vi, v := range vs {
		bstart := time.Now()
		if vi > 0 {
			r.c.Restore(cp)
			r.cues, r.next = r.cues[:forkLen], forkNext
		}
		if cp != nil {
			// Point the run at the variant and rewind the engine's accounting
			// to the fork state, as Restore rewound the world.
			r.sched = v.sched
			err = r.eng.Branch(v.sched, at)
		}
		if err == nil {
			n := len(r.cues)
			r.schedule(forkPhase+1, len(v.sched.Phases)-1)
			r.arm(n)
			r.c.RunFor(v.sched.Total - prefix)
			err = r.err
		}
		if err != nil {
			return nil, timing, fmt.Errorf("variant %q: %w", v.name, err)
		}
		reps = append(reps, r.eng.Report())
		timing.branches = append(timing.branches, time.Since(bstart))
	}
	return reps, timing, nil
}

// RunScenarioForked executes one scenario as a group of two: prefix,
// checkpoint, branch, rewind, branch again. Both returned reports must be
// byte-identical to RunScenarioExec on the same scenario — the
// fork-determinism property the golden corpus gates (the second report
// additionally proves a restored world replays exactly after a dirty
// branch).
func RunScenarioForked(s *scenario.Scenario, shards int) (*scenario.Report, *scenario.Report, error) {
	sched, err := scenario.Compile(s)
	if err != nil {
		return nil, nil, err
	}
	vs := []forkVariant{{name: "a", sched: sched}, {name: "b", sched: sched}}
	reps, _, err := runGroup(vs, ExecOptions{Shards: shards}, s.ForkPhase())
	if err != nil {
		return nil, nil, err
	}
	return reps[0], reps[1], nil
}

// RunSweep executes a parameter sweep: the base scenario with each variant's
// overrides applied. Variants whose settled prefix is byte-identical (same
// seed, protocol, topology, and pre-fork schedule) share one simulated
// prefix via checkpoint/fork; a variant that changes the prefix itself (a
// different seed or protocol) is a group of its own. defaultShards applies
// to variants without a shards override.
func RunSweep(sw *scenario.Sweep, defaultShards int) (*scenario.SweepReport, error) {
	return RunSweepExec(sw, defaultShards, ObsOptions{})
}

// RunSweepExec is RunSweep with an observability configuration. The obs
// plane's books are part of the engine's checkpoint, so an obs-enabled sweep
// shares prefixes like any other and each branch reports its own prefix
// metrics.
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
		if err == nil {
			// A param no layer declares fails the sweep before any group runs.
			_, err = StackWithParams(rv.Scenario.ProtocolName(), rv.Scenario.Params)
		}
		if err != nil {
			return nil, fmt.Errorf("sweep variant %q: %w", rv.Name, err)
		}
		shards := rv.Shards
		if shards <= 0 {
			shards = defaultShards
		}
		slots[i] = slot{
			v:      forkVariant{name: rv.Name, sched: sched},
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
		group := make([]forkVariant, len(idxs))
		for gi, i := range idxs {
			group[gi] = slots[i].v
		}
		shards := slots[idxs[0]].shards
		reps, timing, err := runGroup(group, ExecOptions{Shards: shards, Obs: obsOpts}, forkPhase)
		if err != nil {
			return nil, fmt.Errorf("sweep group %q: %w", group[0].name, err)
		}
		// Only a group of more than one shared anything; a lone variant's
		// branch wall is its whole run.
		shared := len(idxs) > 1
		if shared {
			rep.ForkAt = forkTime(group[0].sched, forkPhase)
			rep.PrefixWall += timing.prefix
			rep.ColdPrefixWall += time.Duration(len(idxs)) * timing.prefix
		}
		for gi, i := range idxs {
			wall := timing.branches[gi]
			if !shared {
				wall += timing.prefix
			}
			rep.Results[i] = scenario.SweepVariantResult{
				Name:         group[gi].name,
				Protocol:     reps[gi].Protocol,
				Shards:       shards,
				SharedPrefix: shared,
				BranchWall:   wall,
				Report:       reps[gi],
			}
		}
	}
	rep.TotalWall = time.Since(totalStart)
	return rep, nil
}
