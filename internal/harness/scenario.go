package harness

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"time"

	"macedon/internal/check"
	"macedon/internal/core"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genammo"
	"macedon/internal/overlays/genbullet"
	"macedon/internal/overlays/genchord"
	"macedon/internal/overlays/gennice"
	"macedon/internal/overlays/genovercast"
	"macedon/internal/overlays/genpastry"
	"macedon/internal/overlays/genrandtree"
	"macedon/internal/overlays/genscribe"
	"macedon/internal/overlays/gensplitstream"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
	"macedon/internal/substrate"
)

// ScenarioStack resolves a scenario protocol name onto a node stack. Every
// protocol exists only as the code `macedon gen` emits from specs/*.mac:
// chord and genchord name the same agent, as do pastry and genpastry and
// randtree and genrandtree. Scribe stacks on Pastry, splitstream on Scribe,
// and bullet on RandTree.
func ScenarioStack(proto string) ([]core.Factory, error) {
	switch proto {
	case "", "chord", "genchord":
		return []core.Factory{genchord.New()}, nil
	case "pastry", "genpastry":
		return []core.Factory{genpastry.New()}, nil
	case "randtree", "genrandtree":
		return []core.Factory{genrandtree.New()}, nil
	case "scribe":
		return []core.Factory{genpastry.New(), genscribe.New()}, nil
	case "splitstream":
		// Figure 12's forest: 16 stripe trees whose fan-out Scribe bounds
		// by pushdown, SplitStream's one change to it (§4.1).
		return []core.Factory{
			genpastry.New(),
			func() core.Agent { return &genscribe.Agent{MaxChildren: 16} },
			gensplitstream.New(),
		}, nil
	case "nice":
		return []core.Factory{gennice.New()}, nil
	case "overcast":
		return []core.Factory{genovercast.New()}, nil
	case "ammo":
		return []core.Factory{genammo.New()}, nil
	case "bullet":
		// Bullet layers over RandTree (the paper's Figure 2 stack): the tree
		// stripes blocks, the RanSub mesh recovers the rest.
		return []core.Factory{genrandtree.New(), genbullet.New()}, nil
	}
	return nil, fmt.Errorf("harness: unknown scenario protocol %q (have chord, pastry, randtree, scribe, splitstream, nice, overcast, ammo, bullet, genchord, genpastry, genrandtree)", proto)
}

// StackWithParams is ScenarioStack(proto) with a scenario's params set on
// every agent its factories build, through the SetParam accessor codegen
// emits on each generated agent. A name that no layer of the stack declares
// is an error, returned before any node exists.
func StackWithParams(proto string, params map[string]int) ([]core.Factory, error) {
	stack, err := ScenarioStack(proto)
	if err != nil || len(params) == 0 {
		return stack, err
	}
	type param struct {
		name string
		v    int32
	}
	var set []param
	for _, name := range slices.Sorted(maps.Keys(params)) {
		declared := false
		for _, f := range stack {
			if p, ok := f().(paramSetter); ok && p.SetParam(name, 0) {
				declared = true
			}
		}
		if !declared {
			return nil, fmt.Errorf("harness: param %q: no layer of protocol %q declares an int auxiliary variable of that name", name, proto)
		}
		set = append(set, param{name, int32(params[name])})
	}
	out := make([]core.Factory, len(stack))
	for i, f := range stack {
		out[i] = func() core.Agent {
			a := f()
			if p, ok := a.(paramSetter); ok {
				for _, kv := range set {
					p.SetParam(kv.name, kv.v)
				}
			}
			return a
		}
	}
	return out, nil
}

// paramSetter is the accessor every generated agent carries.
type paramSetter interface {
	SetParam(name string, v int32) bool
}

// ExecOptions are execution parameters of a scenario run: knobs that change
// how the run executes (parallelism, vertex placement, observability) but
// never what it computes — every combination produces the identical trace
// and report, which is what lets one golden corpus gate them all.
type ExecOptions struct {
	// Shards is the event-loop shard count; 0 or 1 is sequential.
	Shards int
	// Partitioner is the vertex→shard assignment strategy ("" or
	// simnet.PartitionerStriped, or simnet.PartitionerLatency).
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
	stack []core.Factory

	needsGroup bool
	group      overlay.Key
	zeros      []byte // the payload bytes Inject lends out, never written

	// obs drives time-series sample scheduling; the plane itself is the
	// engine's.
	obs ObsOptions

	// cues is the schedule in firing order, next the first cue not yet
	// fired. One global timer, the cursor, is armed for cues[next] whenever
	// there is such a cue: it fires that cue alone and re-arms for the one
	// after, so however long the schedule, the heaps hold one harness record.
	cues   []cue
	next   int
	cursor substrate.Timer

	// err is the first op failure; later ops are not applied and runGroup
	// returns it.
	err error
}

// cueKind is what a cue does when the cursor reaches it.
type cueKind uint8

const (
	cueOp         cueKind = iota // apply Ops[i]
	cueSpawnBatch                // build and apply the same-instant setup spawns Ops[i:j]
	cueSettleEnd                 // take the settle-boundary baseline
	cuePhaseEnd                  // snapshot phase i
	cueSample                    // time-series sample of phase i
)

// cue is one schedule entry: a plain record the cursor walks, not an event
// in the scheduler's heaps. i and j index the Ops and Phases of whichever
// schedule the run is on: variants that share a prefix list its ops and
// phases first, identically (prefixKey), so a cue the prefix left unfired
// means the same thing in every branch.
type cue struct {
	at   time.Duration
	i, j int
	kind cueKind
}

// newSimRun builds the cluster and a fresh engine for a compiled schedule.
// The caller owns r.c.StopAll.
func newSimRun(sched *scenario.Schedule, exec ExecOptions) (*simRun, error) {
	s := sched.Scenario
	stack, err := StackWithParams(s.ProtocolName(), s.Params)
	if err != nil {
		return nil, err
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
		Partitioner:    exec.Partitioner,
		HeartbeatAfter: s.HeartbeatAfter.D(),
		FailAfter:      s.FailAfter.D(),
	})
	if err != nil {
		return nil, err
	}
	r := &simRun{c: c, sched: sched, stack: stack, obs: exec.Obs}
	cfg := scenario.EngineConfig{Addrs: c.Addrs, Shards: c.Sched.Shards()}
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
	if s.NeedsGroup() {
		r.group = overlay.HashString(s.GroupName())
		r.needsGroup = true
	}
	return r, nil
}

// scheduleSetup appends the setup operations (joins) plus the settle-end
// baseline snapshot. Runs of spawns at the same instant are batched into one
// cue so node construction can parallelize across shards instead of
// serializing inside a single epoch barrier — the t=0 spawn herd. The batch
// executes its spawns in op order, so the trace is byte-identical to
// unbatched scheduling.
func (r *simRun) scheduleSetup() {
	ops := r.sched.Ops
	i := 0
	for i < len(ops) && ops[i].Phase < 0 {
		j := i + 1
		if ops[i].Kind == scenario.OpSpawn {
			for j < len(ops) && ops[j].Phase < 0 && ops[j].Kind == scenario.OpSpawn && ops[j].At == ops[i].At {
				j++
			}
		}
		kind := cueOp
		if j-i > 1 {
			kind = cueSpawnBatch
		}
		r.cues = append(r.cues, cue{at: ops[i].At, kind: kind, i: i, j: j})
		i = j
	}
	r.cues = append(r.cues, cue{at: r.sched.Settle, kind: cueSettleEnd})
}

// schedulePhases appends the ops and end-of-phase snapshots of phases
// [from, to] — none when the range is empty. Ops fire at their absolute
// schedule offsets regardless of when scheduling happens, which is what lets
// a branch schedule its tail phases after the prefix already ran.
func (r *simRun) schedulePhases(from, to int) {
	ops := r.sched.Ops
	i := 0
	for i < len(ops) && ops[i].Phase < from {
		i++
	}
	for pi := from; pi <= to; pi++ {
		for ; i < len(ops) && ops[i].Phase == pi; i++ {
			r.cues = append(r.cues, cue{at: ops[i].At, kind: cueOp, i: i})
		}
		r.cues = append(r.cues, cue{at: r.sched.Phases[pi].End, kind: cuePhaseEnd, i: pi})
		if r.obs.Enabled {
			r.scheduleObsSeries(pi)
		}
	}
}

// arm puts the unfired cues, among them the ones appended since there were
// n, in firing order and arms the cursor if none was unfired before. The
// sort is stable, so cues at one instant fire in the order they were
// appended. A branch
// appends only cues due at or after the fork instant, where the cue its
// prefix left armed waits, so that cue stays first and the heaps are left
// as they are.
func (r *simRun) arm(n int) {
	slices.SortStableFunc(r.cues[r.next:], func(a, b cue) int { return cmp.Compare(a.at, b.at) })
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
	d := r.cues[r.next].at - r.c.Sched.Elapsed()
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
	switch c.kind {
	case cueOp:
		r.apply(r.sched.Ops[c.i])
	case cueSpawnBatch:
		r.applySpawnBatch(r.sched.Ops[c.i:c.j])
	case cueSettleEnd:
		r.eng.SettleEnd()
	case cuePhaseEnd:
		r.eng.PhaseEnd(c.i)
	case cueSample:
		r.eng.Sample(c.i, c.at-r.sched.Phases[c.i].Start, float64(r.c.Sched.Executed()), float64(r.pending()))
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
	if err := r.eng.Apply(op); err != nil {
		r.err = fmt.Errorf("harness: %s node %d at %s: %w", op.Kind, op.Node, op.At, err)
	}
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
	if err := r.c.SpawnBatch(idx, r.stack); err != nil && r.err == nil {
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
		_, err = r.c.Revive(i, r.stack)
	case r.c.Nodes[r.c.Addrs[i]] == nil:
		_, err = r.c.Spawn(i, r.stack)
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
		_ = n.Multicast(r.group, payload, int32(op.ID), overlay.PriorityDefault)
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

// Routing is the routing kind the run's stack declares.
func (r *simRun) Routing() string { return core.StackRouting(r.stack) }

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
	if r.needsGroup {
		if i == 0 {
			_ = n.CreateGroup(r.group)
		} else {
			_ = n.Join(r.group)
		}
	}
}
