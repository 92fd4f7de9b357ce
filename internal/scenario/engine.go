package scenario

import (
	"fmt"
	"io"
	"time"

	"macedon/internal/check"
	"macedon/internal/core"
	"macedon/internal/obs"
	"macedon/internal/overlay"
	"macedon/internal/simnet"
)

// Backend is what differs between running a schedule under emulation and on
// live hosts: a clock, process control, network shaping, workload injection,
// and the raw counters and routing state the engine judges. Everything that
// counts, stamps, traces or checks a run lives in Engine, once.
//
// The shaping and process methods return a detail string the engine appends
// to the op's trace line: the emulator returns "" (its lines are pinned by
// the golden corpus), the live controller returns what only it knows (pid,
// signal, resolved delay).
type Backend interface {
	// Now is the current offset on the scenario timeline.
	Now() time.Duration
	// Spawn starts node (a cold rejoin when revive) and routes its deliver
	// and forward upcalls to Engine.Deliver and Engine.Forward.
	Spawn(node int, revive bool) (detail string, err error)
	// Kill crashes node.
	Kill(node int) (detail string)
	// Shape carries out one network dynamic: node_down/up, link_down/up,
	// degrade/restore, partition/heal. The engine has already updated its
	// reachability flags, so a backend may consult Engine.Reachable.
	Shape(op Op) (detail string)
	// Inject hands a lookup or multicast op to its (alive) source node.
	Inject(op Op)
	// Counters sums the protocol counters of the nodes currently alive.
	Counters() core.Counters
	// NetStats is the cumulative network counter snapshot.
	NetStats() simnet.Stats
	// NodeState extracts node's routing state for the invariant checkers;
	// ok is false when an alive node has none to show yet.
	NodeState(node int) (st check.NodeState, ok bool)
	// Families adds the backend's own metric families — engine, network and
	// scheduler totals — to the registry Report is assembling. The engine
	// calls it only with the obs plane on.
	Families(reg *obs.Registry)
}

// EngineConfig is what a backend tells the engine about the deployment.
type EngineConfig struct {
	// Shards is the number of delivery-accounting rows: one per goroutine
	// that may call Deliver/Forward concurrently. 0 selects 1.
	Shards int
	// Obs turns the observability plane on; nil keeps every legacy output
	// byte-identical.
	Obs *ObsConfig
	// Echo, when set, receives every trace line as it is recorded.
	Echo io.Writer
	// Direct is the unicast latency from node 0 to each node, by node
	// index: the denominator of a site scenario's stretch. The engine reads
	// it only when the scenario has sites.
	Direct []time.Duration
}

// sendStamp is what a delivery needs to know about the op it answers; sent
// is false until the op is. Sixteen bytes: a branch copies one per workload
// op.
type sendStamp struct {
	at    time.Duration
	phase int32
	sent  bool
}

// nodeAcct is one node's liveness and connectivity: the flags, and for the
// correctness plane the instants they last changed — kept whether or not the
// scenario opted into checks, so branching is uniform.
type nodeAcct struct {
	alive                        bool
	hostDown, linkDown, degraded bool          // node_down, link_down, degrade active
	upAt                         time.Duration // last transition to up
	downAt                       time.Duration // last transition to down (0 = down since start)
	connAt                       time.Duration // last node/link/degrade/partition change
}

// recvAcct is one receiver's deliveries in a scenario with sites: integer
// sums, each written only by the shard that owns the node, so the per-site
// table folded from them is the same at any shard count.
type recvAcct struct {
	count  int
	latSum time.Duration
}

// cell is one [shard][phase] slot of the delivery accounting.
type cell struct {
	delivered, forwards int
	latSum              time.Duration
}

// Accounting is everything an engine has counted and stamped so far, all on
// the scenario timeline. It is a value: Checkpoint hands out a deep copy and
// Branch installs one, which is the whole of rewinding the bookkeeping
// (docs/sweeps.md).
type Accounting struct {
	nodes       []nodeAcct
	partitioned bool

	sent []sendStamp // by workload op ID: send instant and issuing phase
	// grid is indexed [shard][phase]: Deliver and Forward run on the
	// reporting node's shard, concurrently with other shards, and the
	// per-shard sums merge deterministically (addition commutes).
	grid [][]cell
	// rows hold the per-phase tallies written at barriers (Live, Sent,
	// Skipped, counter snapshots, Checks); Report folds grid into them.
	rows []PhaseTotals
	base PhaseTotals // snapshot at the settle boundary
	// recv is indexed by node; nil unless the scenario has sites.
	recv []recvAcct

	eventsRun int
	trace     []string

	// obs is the observability plane's section; nil when the plane is off.
	obs *obsBooks
}

// clone deep-copies the accounting with its phase- and op-indexed arrays
// resized to sched's phases and workload ops; the columns both sides share
// carry over.
func (a Accounting) clone(sched *Schedule) Accounting {
	phases := len(sched.Phases)
	a.nodes = append([]nodeAcct(nil), a.nodes...)
	sent := make([]sendStamp, sched.workloadOps())
	copy(sent, a.sent)
	a.sent = sent
	grid := make([][]cell, len(a.grid))
	for sh := range grid {
		grid[sh] = make([]cell, phases)
		copy(grid[sh], a.grid[sh])
	}
	a.grid = grid
	rows := make([]PhaseTotals, phases)
	copy(rows, a.rows)
	a.rows = rows
	a.trace = append([]string(nil), a.trace...)
	a.recv = append([]recvAcct(nil), a.recv...)
	if a.obs != nil {
		a.obs = a.obs.clone(phases, sched.workloadOps())
	}
	return a
}

// Engine executes one compiled schedule's bookkeeping over a Backend — or,
// under checkpoint/fork, one shared prefix followed by several variant
// branches of it.
//
// Concurrency: the engine takes no lock of its own. Apply, SettleEnd,
// PhaseEnd, Sample, Tracef, Checkpoint, Branch and Report are coordinator
// calls: the emulator makes them at epoch barriers with every shard parked,
// the live controller under its mutex. Deliver and Forward may run
// concurrently with each other, one goroutine per shard index; they only
// read what coordinator calls wrote (sent) and write their own shard's grid
// row and obs books; Deliver also writes its node's recv entry, which only
// that node's shard reports. The live controller serialises them under its
// mutex and reports shard 0.
type Engine struct {
	sched  *Schedule
	b      Backend
	echo   io.Writer
	direct []time.Duration

	acct Accounting

	// checkers is the run's correctness plane; nil when the scenario has no
	// checks spec.
	checkers     []check.Checker
	grace, stale time.Duration

	// sampler decides which traces and event records the observability
	// plane keeps, when it is on (what it records is acct.obs).
	sampler obs.KeySampler
}

// NewEngine builds the engine for a compiled schedule.
func NewEngine(sched *Schedule, b Backend, cfg EngineConfig) (*Engine, error) {
	np, nodes := len(sched.Phases), sched.Scenario.Nodes
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	e := &Engine{
		sched:  sched,
		b:      b,
		echo:   cfg.Echo,
		direct: cfg.Direct,
		acct: Accounting{
			nodes: make([]nodeAcct, nodes),
			sent:  make([]sendStamp, sched.workloadOps()),
			grid:  make([][]cell, shards),
			rows:  make([]PhaseTotals, np),
		},
	}
	for sh := range e.acct.grid {
		e.acct.grid[sh] = make([]cell, np)
	}
	if sched.Scenario.Sites > 0 {
		e.acct.recv = make([]recvAcct, nodes)
	}
	if err := e.resolveChecks(); err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		e.sampler = obs.KeySampler{Seed: uint64(sched.Scenario.Seed), N: uint64(cfg.Obs.TraceSample)}
		e.acct.obs = newObsBooks(sched, shards, *cfg.Obs)
	}
	return e, nil
}

func (e *Engine) resolveChecks() error {
	e.checkers, e.grace, e.stale = nil, 0, 0
	cfg := e.sched.Scenario.CheckConfig()
	if cfg == nil {
		return nil
	}
	cfg.Routing = core.StackRouting(e.sched.Stack)
	var err error
	if e.checkers, err = check.New(*cfg); err != nil {
		return err
	}
	e.grace, e.stale = cfg.Resolve()
	return nil
}

// Checkpoint captures the accounting for later branches.
func (e *Engine) Checkpoint() Accounting { return e.acct.clone(e.sched) }

// Branch points the engine at a variant's schedule and rewinds the
// accounting — obs books included — to a checkpoint, the way the backend
// rewinds the world. The engine object itself survives: upcall handlers
// installed on nodes spawned before the checkpoint captured it. Nothing
// else is held per schedule: Report labels the obs sections from the
// schedule it finds.
func (e *Engine) Branch(sched *Schedule, at Accounting) error {
	e.sched = sched
	e.acct = at.clone(sched)
	// A variant may re-window or re-select its checkers.
	return e.resolveChecks()
}

// Alive reports whether node is up.
func (e *Engine) Alive(node int) bool { return e.acct.nodes[node].alive }

// Live counts the nodes that are up.
func (e *Engine) Live() int {
	live := 0
	for i := range e.acct.nodes {
		if e.acct.nodes[i].alive {
			live++
		}
	}
	return live
}

// Reachable reports whether node sits behind neither an active node_down
// nor an active link_down.
func (e *Engine) Reachable(node int) bool {
	return !e.acct.nodes[node].hostDown && !e.acct.nodes[node].linkDown
}

// Tracef records a backend's own trace line at the current instant.
func (e *Engine) Tracef(format string, args ...any) { e.tracef(e.b.Now(), format, args...) }

func (e *Engine) tracef(now time.Duration, format string, args ...any) {
	line := fmt.Sprintf("t=%10.3fs  %s", now.Seconds(), fmt.Sprintf(format, args...))
	e.acct.trace = append(e.acct.trace, line)
	if e.echo != nil {
		fmt.Fprintln(e.echo, line)
	}
}

// Apply executes one schedule op at its instant. The only error is the
// backend failing to start a node, wrapped with the op's kind, node and
// instant.
func (e *Engine) Apply(op Op) error {
	a := &e.acct
	a.eventsRun++
	now := e.b.Now()
	n := op.Node
	switch op.Kind {
	case OpSpawn, OpRevive:
		if a.nodes[n].alive {
			e.tracef(now, "%s node %d skipped (already up)", op.Kind, n)
			return nil
		}
		detail, err := e.b.Spawn(n, op.Kind == OpRevive)
		if err != nil {
			return fmt.Errorf("scenario: %s node %d at %s: %w", op.Kind, n, op.At, err)
		}
		a.nodes[n].alive = true
		a.nodes[n].upAt = now
		e.tracef(now, "%s node %d (%v)%s", op.Kind, n, Addr(n), detail)
		if op.Kind == OpRevive {
			e.recordLifecycle(op, now)
		}
	case OpKill:
		if !a.nodes[n].alive {
			e.tracef(now, "kill node %d skipped (already down)", n)
			return nil
		}
		detail := e.b.Kill(n)
		a.nodes[n].alive = false
		a.nodes[n].downAt = now
		e.tracef(now, "kill node %d (%v)%s", n, Addr(n), detail)
		e.recordLifecycle(op, now)
	case OpLookup, OpMulticast:
		if !a.nodes[n].alive {
			a.rows[op.Phase].Skipped++
			e.tracef(now, "%s #%d skipped (node %d down)", op.Kind, op.ID, n)
			e.recordSkip(op, now)
			return nil
		}
		a.sent[op.ID] = sendStamp{at: now, phase: int32(op.Phase), sent: true}
		a.rows[op.Phase].Sent++
		e.recordInject(op, now)
		e.b.Inject(op)
	default:
		e.shape(op, now)
	}
	return nil
}

// shape applies one network dynamic: flags and connectivity stamps first
// (the backend may read them), then the backend primitive, then the trace.
func (e *Engine) shape(op Op, now time.Duration) {
	a := &e.acct
	n := op.Node
	var line string
	switch op.Kind {
	case OpNodeDown, OpNodeUp:
		a.nodes[n].hostDown = op.Kind == OpNodeDown
		line = fmt.Sprintf("%s node %d (%v)", op.Kind, n, Addr(n))
	case OpLinkDown, OpLinkUp:
		a.nodes[n].linkDown = op.Kind == OpLinkDown
		line = fmt.Sprintf("%s node %d", op.Kind, n)
	case OpDegrade:
		a.nodes[n].degraded = true
		line = fmt.Sprintf("degrade node %d (latency x%.1f, loss %.2f)", n, op.LatencyFactor, op.Loss)
	case OpRestore:
		a.nodes[n].degraded = false
		line = fmt.Sprintf("restore node %d", n)
	case OpPartition:
		a.partitioned = true
		line = fmt.Sprintf("partition [0..%d) | [%d..%d)", op.SideA, op.SideA, len(a.nodes))
	case OpHeal:
		a.partitioned = false
		line = "heal partition"
	default:
		return
	}
	if op.Kind == OpPartition || op.Kind == OpHeal {
		// A partition or heal changes everyone's reachability at once.
		for i := range a.nodes {
			a.nodes[i].connAt = now
		}
		e.recordLifecycle(op, now)
	} else {
		a.nodes[n].connAt = now
	}
	e.tracef(now, "%s%s", line, e.b.Shape(op))
}

// stamp returns the send stamp of workload op; ok is false for an ID the
// schedule does not issue and for an op not sent (yet, or ever).
func (a *Accounting) stamp(op int) (s sendStamp, ok bool) {
	if op < 0 || op >= len(a.sent) {
		return sendStamp{}, false
	}
	s = a.sent[op]
	return s, s.sent
}

// Deliver accounts one delivery of workload op at node, observed at now, to
// the phase that issued the op. Deliveries of anything else are ignored.
func (e *Engine) Deliver(op, node, shard int, now time.Duration) {
	s, ok := e.acct.stamp(op)
	if !ok {
		return
	}
	lat := now - s.at
	if lat < 0 {
		lat = 0 // a live agent's clock stamp can trail the controller's
	}
	c := &e.acct.grid[shard][s.phase]
	c.delivered++
	c.latSum += lat
	if e.acct.recv != nil {
		r := &e.acct.recv[node]
		r.count++
		r.latSum += lat
	}
	if o := e.acct.obs; o != nil {
		sh := o.shards[shard]
		sh.del[op]++
		sh.lat[s.phase][obs.Bucket(obs.LatencyBuckets, lat.Seconds())]++
		e.span(sh, obs.SpanDeliver, op, node, -1, now)
	}
}

// Forward accounts one more overlay hop of workload op's payload, from node
// toward next, to the phase that issued the op.
func (e *Engine) Forward(op, node int, next overlay.Address, shard int, now time.Duration) {
	s, ok := e.acct.stamp(op)
	if !ok {
		return
	}
	e.acct.grid[shard][s.phase].forwards++
	if o := e.acct.obs; o != nil {
		sh := o.shards[shard]
		sh.fwd[op]++
		nextIdx := int(next) - 1 // Addr's inverse
		if nextIdx < 0 || nextIdx >= len(e.acct.nodes) {
			nextIdx = -1
		}
		e.span(sh, obs.SpanForward, op, node, nextIdx, now)
	}
}

// SettleEnd takes the baseline snapshot phase deltas are measured against.
func (e *Engine) SettleEnd() {
	e.acct.base = PhaseTotals{}
	e.snapshot(&e.acct.base)
}

// PhaseEnd snapshots phase pi and, when the scenario opted in, runs the
// invariant checkers; it returns their verdict (nil when checks are off).
func (e *Engine) PhaseEnd(pi int) *check.PhaseChecks {
	row := &e.acct.rows[pi]
	e.snapshot(row)
	row.Live = e.Live()
	if e.checkers != nil {
		row.Checks = e.runChecks(pi)
	}
	return row.Checks
}

func (e *Engine) snapshot(row *PhaseTotals) {
	ctl := e.b.Counters()
	row.Net, row.CtlMsgs, row.CtlBytes = e.b.NetStats(), ctl.MsgsSent, ctl.BytesSent
}

// runChecks assembles the phase-boundary View and drives the checkers. No
// checker indicts a placeholder node (nodeStates), and the stability
// windows keep its peers' views out of scope too.
func (e *Engine) runChecks(pi int) *check.PhaseChecks {
	a := &e.acct
	now := e.b.Now()
	n := len(a.nodes)
	v := &check.View{
		Phase:       pi,
		PhaseName:   e.sched.Phases[pi].Name,
		At:          now,
		Grace:       e.grace,
		StaleBound:  e.stale,
		Partitioned: a.partitioned,
		UpFor:       make([]time.Duration, n),
		DownFor:     make([]time.Duration, n),
		ConnAge:     make([]time.Duration, n),
		Reachable:   make([]bool, n),
		Degraded:    make([]bool, n),
	}
	v.Nodes = e.nodeStates()
	for i := 0; i < n; i++ {
		if a.nodes[i].alive {
			v.UpFor[i] = now - a.nodes[i].upAt
		} else {
			v.DownFor[i] = now - a.nodes[i].downAt
		}
		v.ConnAge[i] = now - a.nodes[i].connAt
		v.Reachable[i] = e.Reachable(i)
		v.Degraded[i] = a.nodes[i].degraded
	}
	pc := check.Run(e.checkers, v)
	for _, vi := range pc.Violations {
		e.recordViolation(now, pi, vi)
	}
	return pc
}

// nodeStates extracts every node's routing state, indexed by node: an alive
// node the backend has no state for — a live agent that restarted between
// the poll and the snapshot — is an alive-but-unjoined placeholder.
func (e *Engine) nodeStates() []check.NodeState {
	out := make([]check.NodeState, len(e.acct.nodes))
	for i := range out {
		if !e.acct.nodes[i].alive {
			out[i] = check.DeadState(i, Addr(i))
			continue
		}
		st, ok := e.b.NodeState(i)
		if !ok {
			st = check.NodeState{Addr: Addr(i), Alive: true}
		}
		st.Node = i // engine indexing is authoritative
		out[i] = st
	}
	return out
}

// Report assembles the structured result after the run (or branch) ends.
func (e *Engine) Report() *Report {
	a := &e.acct
	s := e.sched.Scenario
	rep := &Report{
		Scenario:  s.Name,
		Protocol:  s.ProtocolName(),
		Seed:      s.Seed,
		Nodes:     s.Nodes,
		Settle:    e.sched.Settle,
		End:       e.sched.End,
		Total:     e.sched.Total,
		EventsRun: a.eventsRun,
		Final:     e.b.NetStats(),
		Trace:     append([]string(nil), a.trace...),
	}
	rows := append([]PhaseTotals(nil), a.rows...)
	for pi := range rows {
		for sh := range a.grid {
			c := a.grid[sh][pi]
			rows[pi].Delivered += c.delivered
			rows[pi].Forwards += c.forwards
			rows[pi].LatSum += c.latSum
		}
	}
	rep.Phases = AssemblePhases(e.sched.Phases, rows, a.base)
	if a.obs != nil {
		e.obsReport(rep, rows)
	}
	if a.recv != nil {
		rep.Sites = e.sites()
	}
	return rep
}

// sites folds the per-receiver tallies into the per-site table. Site s is
// nodes [s·per, (s+1)·per); the stretch sum runs in node order, so its
// rounding is the same at any shard count.
func (e *Engine) sites() []SiteStat {
	recv := e.acct.recv
	out := make([]SiteStat, e.sched.Scenario.Sites)
	per := len(recv) / len(out)
	for si := range out {
		st := &out[si]
		st.Site, st.Members = si, per
		var lat time.Duration
		var stretch float64
		for i := si * per; i < (si+1)*per; i++ {
			if i == 0 {
				continue // the multicast source
			}
			st.Received += recv[i].count
			lat += recv[i].latSum
			if i < len(e.direct) && e.direct[i] > 0 {
				stretch += float64(recv[i].latSum) / float64(e.direct[i])
			}
		}
		if st.Received > 0 {
			st.MeanLatency = lat / time.Duration(st.Received)
			st.MeanStretch = stretch / float64(st.Received)
		}
	}
	return out
}
