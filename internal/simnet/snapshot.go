package simnet

import (
	"maps"
	"slices"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/statecopy"
	"macedon/internal/topology"
)

// Checkpoint/fork support (docs/sweeps.md): a scheduler and network snapshot
// captures everything the emulator mutates as virtual time advances, so a
// scenario sweep can run the expensive settled prefix once, fork, and rewind
// between variant branches. Snapshots are restore-in-place: the pending
// events' closures keep pointing at the same scheduler, link, and endpoint
// objects, whose state is rewritten underneath them.
//
// Both Snapshot and Restore must be called from the coordinating goroutine
// between RunFor windows, when every shard worker is parked — exactly the
// points where all cross-goroutine state is already synchronized.

// The emulator's own types opt out of the statecopy walk: their state is
// captured by the snapshots below (scheduler, network, endpoints, timers) or
// is immutable for the lifetime of an experiment (substrate handles).
func (s *Scheduler) StateCopyOpaque()      {}
func (n *Network) StateCopyOpaque()        {}
func (ns *NodeSubstrate) StateCopyOpaque() {}
func (e *endpoint) StateCopyOpaque()       {}
func (t *simTimer) StateCopyOpaque()       {}

// timerFlags is one timer's lazy-cancellation state at snapshot time. Only
// timers with a record in the copied heaps are kept: a timer with none has no
// record in the restored heaps either, so its state cannot make anything run,
// and its owner's own checkpointed fields say whether it counts as armed.
type timerFlags struct {
	gen     uint64
	pending bool
}

// shardSnapshot captures one event shard: evts[:timers] is the timer heap's
// array and the rest the packet heap's.
type shardSnapshot struct {
	evts     []event
	timers   int
	now      time.Duration
	cur      eventKey
	executed uint64
}

// SchedulerSnapshot is a restorable capture of the event loop: the global
// and per-shard event heaps, every queued timer's generation and pending
// flag, the virtual clocks and executing-key stamps, the deterministic (time,
// actor, seq) counters, the barrier-stall accounting, the window density the
// next fan-out decision rests on, and the seeded PRNG. Outboxes are empty
// between windows and carry nothing. Timers and their callbacks are shared
// with the live heaps — restore-in-place is what keeps them valid.
type SchedulerSnapshot struct {
	now        time.Duration
	globalSeq  uint64
	executed   uint64
	stall      time.Duration
	lastSync   time.Duration
	lastWindow uint64
	global     []event
	shards     []shardSnapshot
	timers     map[*simTimer]timerFlags
	rng        *statecopy.Image
}

// Snapshot captures the scheduler. Call between RunFor windows only. The
// heaps are copied repaired (eventHeap.items): a snapshot never holds a
// vacant root.
func (s *Scheduler) Snapshot() *SchedulerSnapshot {
	cp := &SchedulerSnapshot{
		now:        s.now,
		globalSeq:  s.globalSeq,
		executed:   s.executed,
		stall:      s.stall,
		lastSync:   s.lastSync,
		lastWindow: s.lastWindow,
		global:     append([]event(nil), s.global.items()...),
		timers:     make(map[*simTimer]timerFlags),
		rng:        statecopy.Capture(s.rng),
	}
	collect := func(evts []event) {
		for _, e := range evts {
			if e.tm != nil {
				cp.timers[e.tm] = timerFlags{gen: e.tm.gen, pending: e.tm.pending}
			}
		}
	}
	collect(cp.global)
	for _, sh := range s.shards {
		ss := shardSnapshot{
			evts:     slices.Concat(sh.timers.items(), sh.packets.items()),
			timers:   sh.timers.size(),
			now:      sh.now,
			cur:      sh.cur,
			executed: sh.executed,
		}
		collect(ss.evts)
		cp.shards = append(cp.shards, ss)
	}
	return cp
}

// Restore rewinds the scheduler to the snapshot. The snapshot is not
// consumed: restoring again later rewinds to the same point. The shard
// count must match the one the snapshot was taken at.
func (s *Scheduler) Restore(cp *SchedulerSnapshot) {
	if len(cp.shards) != len(s.shards) {
		panic("simnet: scheduler snapshot restored at a different shard count")
	}
	s.now = cp.now
	s.globalSeq = cp.globalSeq
	s.executed = cp.executed
	s.stall, s.lastSync, s.lastWindow = cp.stall, cp.lastSync, cp.lastWindow
	// Each heap keeps an array of its own, the snapshot's copy is never one:
	// growing the timers never runs into the packets, and a branch never
	// writes into the snapshot.
	s.global.restore(cp.global)
	for i, sh := range s.shards {
		ss := &cp.shards[i]
		sh.timers.restore(ss.evts[:ss.timers])
		sh.packets.restore(ss.evts[ss.timers:])
		sh.now, sh.cur, sh.executed = ss.now, ss.cur, ss.executed
	}
	// Timers queued at the snapshot come back to their exact cancellation
	// state: one the branch fired, stopped or re-armed is pending again at
	// the generation its restored record carries.
	for tm, f := range cp.timers {
		tm.gen, tm.pending = f.gen, f.pending
	}
	cp.rng.Restore()
}

// endpointState captures one endpoint's mutable fields. The receive handler
// is saved too: kill/revive churn in a branch detaches and reattaches it.
type endpointState struct {
	actorSeq uint64
	down     bool
	recv     func(src overlay.Address, payload []byte)
}

// NetworkSnapshot is a restorable capture of the emulated network: per-pipe
// queues with the releases they still owe, serialization horizons and
// deterministic loss/event counters,
// endpoint state, injected dynamics (failed links, degradations,
// partitions), and the per-shard packet accounting.
type NetworkSnapshot struct {
	links    []linkState
	eps      map[overlay.Address]endpointState
	blocked  map[topology.LinkID]bool
	degraded map[topology.LinkID]Degradation
	sides    map[overlay.Address]int
	stats    []shardStats
	pools    []PoolStats
}

// Snapshot captures the network. Call between RunFor windows only.
func (n *Network) Snapshot() *NetworkSnapshot {
	// Retire the current packet generation: the scheduler snapshot taken
	// alongside this one copies event heaps that reference in-flight packet
	// records, so those records must never re-enter a pool. pktGen is
	// monotonic and deliberately absent from the snapshot — restoring must
	// not resurrect a generation that other snapshots still pin.
	n.pktGen++
	cp := &NetworkSnapshot{
		links:    append([]linkState(nil), n.links...),
		eps:      make(map[overlay.Address]endpointState, len(n.eps)),
		blocked:  make(map[topology.LinkID]bool, len(n.blocked)),
		degraded: make(map[topology.LinkID]Degradation, len(n.degraded)),
		stats:    append([]shardStats(nil), n.statsBy...),
		pools:    make([]PoolStats, len(n.pktPools)),
	}
	for i := range cp.pools {
		cp.pools[i] = n.pktPools[i].PoolStats
	}
	for i := range cp.links {
		// An idle or shallow pipe copied flat; a deeper one needs its own
		// spill.
		cp.links[i].spill = cp.links[i].spill.clone()
	}
	for a, ep := range n.eps {
		cp.eps[a] = endpointState{actorSeq: ep.actorSeq, down: ep.down, recv: ep.recv}
	}
	for l, b := range n.blocked {
		cp.blocked[l] = b
	}
	for l, d := range n.degraded {
		cp.degraded[l] = d
	}
	if n.sides != nil {
		cp.sides = make(map[overlay.Address]int, len(n.sides))
		for a, s := range n.sides {
			cp.sides[a] = s
		}
	}
	return cp
}

// Restore rewinds the network to the snapshot. Link and stats state is
// written back into the existing backing arrays. When the restored failure
// set equals the current one, the shard route tables keep their routes and
// the forwarding oracle its trees; otherwise the routes are dropped and the
// oracle keeps its trees only if the failed core links they were built
// around are unchanged (invalidatePaths).
func (n *Network) Restore(cp *NetworkSnapshot) {
	copy(n.links, cp.links)
	for i := range n.links {
		// The branch about to run appends to and compacts its spill in
		// place: it must not be the snapshot's.
		n.links[i].spill = n.links[i].spill.clone()
	}
	copy(n.statsBy, cp.stats)
	for i := range cp.pools {
		n.pktPools[i].PoolStats = cp.pools[i]
	}
	for a, st := range cp.eps {
		ep := n.eps[a]
		ep.actorSeq = st.actorSeq
		ep.down = st.down
		ep.recv = st.recv
	}
	// Cached routes are a function of the failure set alone: a restore to
	// an equal set keeps every shard's.
	if !maps.Equal(n.blocked, cp.blocked) {
		n.blocked = refill(n.blocked, cp.blocked)
		n.invalidatePaths()
	}
	n.degraded = refill(n.degraded, cp.degraded)
	if cp.sides == nil {
		n.sides = nil
	} else {
		n.sides = refill(n.sides, cp.sides)
	}
}

// refill makes dst a copy of src, in dst's own map when it has one; the
// snapshot keeps src.
func refill[K comparable, V any](dst, src map[K]V) map[K]V {
	if dst == nil {
		dst = make(map[K]V, len(src))
	}
	clear(dst)
	maps.Copy(dst, src)
	return dst
}
