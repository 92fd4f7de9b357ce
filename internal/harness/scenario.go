package harness

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"macedon/internal/check"
	"macedon/internal/core"
	"macedon/internal/overlay"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
	"macedon/internal/substrate"
)

// ScenarioStack is scenario.ResolveStack(proto, nil), kept only because the
// frozen bench/macebench calls it; ROADMAP item 1 deletes it.
func ScenarioStack(proto string) ([]core.Factory, error) { return scenario.ResolveStack(proto, nil) }

// ExecOptions are execution parameters of a scenario run: knobs that change
// how the run executes (parallelism, observability) but never what it
// computes — every combination produces the identical trace and report,
// which is what lets one golden corpus gate them all.
type ExecOptions struct {
	// Shards is the event-loop shard count; 0 or 1 is sequential.
	Shards int
	// Partitioner names the vertex→shard placement. There is one,
	// topology.PartitionLatency, named by "" or simnet.PartitionerLatency;
	// any other value is an error.
	Partitioner string
	// Obs configures the observability plane.
	Obs ObsOptions
}

// RunScenarioExec compiles a declarative scenario and executes it against an
// emulated cluster, returning the structured report. The run is fully
// deterministic: the same scenario and seed produce a byte-identical event
// trace and report under any ExecOptions.
func RunScenarioExec(s *scenario.Scenario, exec ExecOptions) (*scenario.Report, error) {
	sched, err := scenario.Compile(s)
	if err != nil {
		return nil, err
	}
	reps, _, err := runGroup([]forkVariant{{name: s.Name, sched: sched}}, exec, s.ForkPhase())
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// simRun executes one compiled schedule on an emulated cluster: it is the
// scenario.Backend the shared engine drives — cluster and virtual clock —
// plus the cue list that walks the schedule. One simRun carries a prefix and
// then the branches of every variant that shares it (runGroup,
// docs/sweeps.md).
type simRun struct {
	c     *Cluster
	eng   *scenario.Engine
	sched *scenario.Schedule
	zeros []byte // the payload bytes Inject lends out, never written

	// obs drives time-series sample scheduling; the plane itself is the
	// engine's.
	obs ObsOptions

	// cues is the schedule in firing order (scenario.Schedule.Cues), with
	// the obs plane's sample cues among them; next is the first cue not yet
	// fired. One global timer, the cursor, is armed for cues[next] whenever
	// there is such a cue: it fires that cue alone and re-arms for the one
	// after, so however long the schedule, the heaps hold one harness record.
	// A cue's I and J index the Ops and Phases of whichever schedule the run
	// is on: variants that share a prefix list its ops and phases first,
	// identically (prefixKey), so a cue the prefix left unfired means the
	// same thing in every branch.
	cues   []scenario.Cue
	next   int
	cursor substrate.Timer

	// err is the first op failure; later ops are not applied and runGroup
	// returns it.
	err error
}

// cueSample is the emulator's own cue kind beside the schedule's: a
// time-series sample of phase I (scheduleObsSeries).
const cueSample = scenario.CuePhaseEnd + 1

// newSimRun builds the cluster and a fresh engine for a compiled schedule.
// The caller owns r.c.StopAll.
func newSimRun(sched *scenario.Schedule, exec ExecOptions) (*simRun, error) {
	s := sched.Scenario
	if exec.Partitioner != "" && exec.Partitioner != simnet.PartitionerLatency {
		return nil, fmt.Errorf("harness: unknown partitioner %q (the one placement is %q)", exec.Partitioner, simnet.PartitionerLatency)
	}
	shards := exec.Shards
	if shards < 1 {
		shards = 1
	}
	g, addrs, err := buildGraph(s.Nodes, s.Routers, s.Sites, s.Seed)
	if err != nil {
		return nil, err
	}
	c, err := NewCluster(ClusterConfig{
		Graph:          g,
		Addrs:          addrs,
		Seed:           s.Seed,
		Shards:         shards,
		HeartbeatAfter: s.HeartbeatAfter.D(),
		FailAfter:      s.FailAfter.D(),
	})
	if err != nil {
		return nil, err
	}
	r := &simRun{c: c, sched: sched, obs: exec.Obs}
	cfg := scenario.EngineConfig{Shards: c.Sched.Shards()}
	if s.Sites > 0 {
		// Stretch divides by the unicast latency from the multicast
		// source, node 0, read from the oracle packets are routed by.
		cfg.Direct = make([]time.Duration, len(c.Addrs))
		for i, a := range c.Addrs {
			if cfg.Direct[i], err = c.Net.LiveRoutes().ClientLatency(c.Addrs[0], a); err != nil {
				c.StopAll()
				return nil, err
			}
		}
	}
	if exec.Obs.Enabled {
		cfg.Obs = &scenario.ObsConfig{
			TraceSample: exec.Obs.TraceSample,
			SeriesLead:  seriesLead,
		}
	}
	if r.eng, err = scenario.NewEngine(sched, r, cfg); err != nil {
		c.StopAll()
		return nil, err
	}
	return r, nil
}

// schedule appends the cues of phases from..to (-1 leads with setup) in
// the one firing order, each phase end followed, when the obs plane is on,
// by that phase's samples. Ops fire at their absolute schedule offsets
// regardless of when scheduling happens, which is what lets a branch
// schedule its tail phases after the prefix already ran.
func (r *simRun) schedule(from, to int) {
	for c := range r.sched.Cues(from, to) {
		r.cues = append(r.cues, c)
		if c.Kind == scenario.CuePhaseEnd && r.obs.Enabled {
			r.scheduleObsSeries(c.I)
		}
	}
}

// arm puts the unfired cues, among them the ones appended since there were
// n, in firing order and arms the cursor if none was unfired before. The
// schedule's cues come in that order already; the stable sort slots the obs
// samples in among them, each behind whatever shares its instant. A branch
// appends only cues due at or after the fork instant, where the cue its
// prefix left armed waits, so that cue stays first and the heaps are left
// as they are.
func (r *simRun) arm(n int) {
	if r.obs.Enabled {
		slices.SortStableFunc(r.cues[r.next:], func(a, b scenario.Cue) int { return cmp.Compare(a.At, b.At) })
	}
	if r.next >= n {
		r.rearm()
	}
}

// rearm arms the cursor for cues[next], if there is one: its first arm is the
// run's one Sched.After call, every later one a Reset.
func (r *simRun) rearm() {
	if r.next == len(r.cues) {
		return
	}
	d := r.cues[r.next].At - r.c.Sched.Elapsed()
	if r.cursor == nil {
		r.cursor = r.c.Sched.After(d, r.fire)
		return
	}
	r.cursor.Reset(d)
}

// fire runs the cue the cursor was armed for, having first armed it for the
// next — at this instant again (Reset(0)) when that cue shares it. One cue
// per firing makes Executed() and the barrier stall count each cue as one
// event, and arming before running keeps the next cue ahead of any global
// event the running one might add.
func (r *simRun) fire() {
	c := r.cues[r.next]
	r.next++
	r.rearm()
	switch c.Kind {
	case scenario.CueOps:
		if c.J-c.I > 1 {
			r.applySpawnBatch(r.sched.Ops[c.I:c.J])
		} else {
			r.apply(r.sched.Ops[c.I])
		}
	case scenario.CueSettleEnd:
		r.eng.SettleEnd()
	case scenario.CuePhaseEnd:
		r.eng.PhaseEnd(c.I)
	case cueSample:
		r.eng.Sample(c.I, c.At-r.sched.Phases[c.I].Start, float64(r.c.Sched.Executed()), float64(r.pending()))
	}
}

// pending is the number of events the run has yet to execute: the records
// in the scheduler's heaps plus the cues the cursor has not reached, less
// the cursor's own record, which stands for the first of them.
func (r *simRun) pending() int {
	n := r.c.Sched.Pending() + len(r.cues) - r.next
	if r.next < len(r.cues) {
		n--
	}
	return n
}

// apply runs one op through the engine at its scheduled instant, keeping the
// first failure for report.
func (r *simRun) apply(op scenario.Op) {
	if r.err != nil {
		return
	}
	r.err = r.eng.Apply(op)
}

// applySpawnBatch executes one same-instant run of setup spawns: node
// construction fans out across the event shards first, then every op goes
// through the engine in op order — Spawn finds its node already built — so
// trace lines and accounting are exactly what per-op execution would emit.
func (r *simRun) applySpawnBatch(ops []scenario.Op) {
	var idx []int
	for _, op := range ops {
		if !r.eng.Alive(op.Node) {
			idx = append(idx, op.Node)
		}
	}
	if err := r.c.SpawnBatch(idx, r.sched.Stack); err != nil && r.err == nil {
		r.err = fmt.Errorf("harness: spawn batch at %s: %w", ops[0].At, err)
	}
	for _, op := range ops {
		r.apply(op)
	}
}

// --- scenario.Backend ---------------------------------------------------------

// Now is the coordinator's virtual clock: ops and boundaries run at epoch
// barriers, where every shard agrees on it.
func (r *simRun) Now() time.Duration { return r.c.Sched.Elapsed() }

// Spawn builds node i (unless applySpawnBatch already did) and attaches the
// engine's delivery accounting.
func (r *simRun) Spawn(i int, revive bool) (string, error) {
	var err error
	switch {
	case revive:
		_, err = r.c.Revive(i, r.sched.Stack)
	case r.c.Nodes[r.c.Addrs[i]] == nil:
		_, err = r.c.Spawn(i, r.sched.Stack)
	}
	if err != nil {
		return "", err
	}
	r.attach(i)
	return "", nil
}

func (r *simRun) Kill(i int) string {
	r.c.Kill(i)
	return ""
}

func (r *simRun) Shape(op scenario.Op) string {
	net, addr := r.c.Net, r.c.Addrs[op.Node]
	switch op.Kind {
	case scenario.OpNodeDown, scenario.OpNodeUp:
		_ = net.SetDown(addr, op.Kind == scenario.OpNodeDown)
	case scenario.OpLinkDown, scenario.OpLinkUp:
		_ = net.SetNodeAccessDown(addr, op.Kind == scenario.OpLinkDown)
	case scenario.OpDegrade:
		_ = net.DegradeNodeAccess(addr, simnet.Degradation{LatencyFactor: op.LatencyFactor, LossRate: op.Loss})
	case scenario.OpRestore:
		_ = net.RestoreNodeAccess(addr)
	case scenario.OpPartition:
		sides := make(map[overlay.Address]int, len(r.c.Addrs))
		for i, a := range r.c.Addrs {
			if i < op.SideA {
				sides[a] = 1
			} else {
				sides[a] = 2
			}
		}
		net.SetPartition(sides)
	case scenario.OpHeal:
		net.ClearPartition()
	}
	return ""
}

// Inject hands the op's node a payload of op.Size zero bytes: a view of one
// read-only buffer per run, grown to the largest size asked for so far. Any
// layer may keep such a view, because no layer writes into a payload
// (docs/architecture.md) and an outgrown buffer stays zero.
func (r *simRun) Inject(op scenario.Op) {
	n := r.c.Nodes[r.c.Addrs[op.Node]]
	if op.Size > len(r.zeros) {
		r.zeros = make([]byte, op.Size)
	}
	payload := r.zeros[:op.Size:op.Size]
	if op.Kind == scenario.OpMulticast {
		_ = n.Multicast(*r.sched.Group, payload, int32(op.ID), overlay.PriorityDefault)
	} else {
		_ = n.Route(overlay.Key(op.Key), payload, int32(op.ID), overlay.PriorityDefault)
	}
}

// Counters totals the engine counters over the currently live nodes: the
// protocol-level control-traffic overhead snapshot taken at phase
// boundaries (all shards are parked there, so the instance reads race
// nothing).
func (r *simRun) Counters() core.Counters {
	var sum core.Counters
	for _, n := range r.c.Nodes {
		c := n.Counters()
		sum.MsgsSent += c.MsgsSent
		sum.BytesSent += c.BytesSent
		sum.MsgsRecv += c.MsgsRecv
		sum.BytesRecv += c.BytesRecv
	}
	return sum
}

func (r *simRun) NetStats() simnet.Stats { return r.c.Net.Stats() }

// NodeState extracts a live node's routing state. The engine asks at a
// phase boundary — a global event at an epoch barrier, all shards parked —
// so the read is race-free and, node state being shard-invariant by the
// simulator's determinism contract, so is the checkers' verdict.
func (r *simRun) NodeState(i int) (check.NodeState, bool) {
	return check.Extract(r.c.Nodes[r.c.Addrs[i]], i), true
}

// attach routes a just-spawned node's deliver and forward upcalls to the
// engine (and joins it to the multicast group). The callbacks fire on the
// node's event shard, so they capture the shard-bound clock and the shard
// index that selects the engine's accounting row.
func (r *simRun) attach(i int) {
	n := r.c.Nodes[r.c.Addrs[i]]
	sub := r.c.NodeSub(i)
	shard := sub.Shard()
	eng := r.eng
	n.RegisterHandlers(core.Handlers{
		Deliver: func(payload []byte, typ int32, src overlay.Address) {
			eng.Deliver(int(typ), i, shard, sub.Elapsed())
		},
		Forward: func(payload []byte, typ int32, next overlay.Address, nextKey overlay.Key) bool {
			eng.Forward(int(typ), i, next, shard, sub.Elapsed())
			return true
		},
	})
	if g := r.sched.Group; g != nil {
		if i == 0 {
			_ = n.CreateGroup(*g)
		} else {
			_ = n.Join(*g)
		}
	}
}
