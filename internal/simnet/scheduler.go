// Package simnet is the discrete-event network emulator that stands in for
// ModelNet: it subjects every packet to hop-by-hop bandwidth serialization,
// propagation delay, and drop-tail queuing over a routed topology, while
// running in virtual time on one machine. Experiments that took the paper
// 20–50 cluster machines replay deterministically in-process.
//
// The event loop is sharded: endpoints and links are partitioned across N
// shards that each run their own event queue in virtual time, synchronized
// by a conservative lookahead barrier derived from the minimum cross-shard
// link latency. Execution order is defined by a deterministic key that is
// independent of the shard count, so a run with -shards=4 produces a trace
// byte-identical to the single-threaded run (see docs/simnet.md).
package simnet

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"macedon/internal/substrate"
)

// Scheduler is a deterministic virtual-time event loop, optionally sharded.
// Events scheduled for the same instant fire in a deterministic order that
// does not depend on the shard count: each event carries an (actor, seq)
// key assigned by its logical owner (an endpoint, a link, or the global
// scheduling context), and ties on the timestamp break by that key. It
// implements substrate.Clock.
type Scheduler struct {
	seed int64
	now  time.Duration // global virtual time since epoch
	rng  *rand.Rand

	// net is the emulated network whose flat event records this scheduler
	// dispatches (simnet.New installs it). Exactly one network may drive a
	// scheduler: flat events carry packet references that only resolve
	// against it.
	net *Network

	shards    []*shard
	lookahead time.Duration // conservative cross-shard window; 0 = not set

	globalSeq uint64    // seq counter of the global actor (actor 0)
	global    eventHeap // global-actor events, executed at barriers

	executed uint64 // events run by step (the sequential loop, barriers)

	// stall accumulates barrier-stall time: for every global-actor event
	// instant, the gap between the engine frontier (the latest executed
	// shard event, or the last barrier) and the barrier instant. lastSync
	// is the last barrier instant noted, so one instant accrues once no
	// matter how many global events share it. Both are coordinator-only.
	stall    time.Duration
	lastSync time.Duration

	// fanned is true while shard windows (or Fanout callbacks) run on
	// several goroutines at once. The coordinator writes it only while
	// every worker is parked; the channel hand-off publishes it.
	fanned bool
	// lastWindow is how many events the previous window executed: the
	// density the next window's inline-or-fan-out decision rests on.
	lastWindow uint64
	active     []*shard // parallel's scratch: shards with work in the window

	windows    uint64 // windows that had work (tests only; not shard-invariant)
	dispatched uint64 // of those, the ones fanned out to workers

	closed sync.Once
}

// epoch anchors virtual time so traces show sensible absolute timestamps.
var epoch = time.Date(2004, time.March, 29, 0, 0, 0, 0, time.UTC) // NSDI '04

// actorGlobal keys events scheduled through the public After API: test
// drivers, the scenario engine, and everything else outside the emulated
// network. Global events execute at epoch barriers when the loop is sharded.
const actorGlobal uint64 = 0

// fanoutBreakEven is the density below which a window's busy shards run one
// after another on the coordinator instead of on their workers. A fanned-out
// window costs a channel round trip per extra shard, and until the parked
// worker's CPU has actually picked the window up the coordinator is simply
// running the shards one after another anyway, plus the hops. Sized on the
// 2-vCPU VM the benchmark runs on, where a parked vCPU takes a few hundred
// microseconds to wake, with every window forced out to the workers and
// then forced inline: on the churn scenario fanning out loses 40–130 % at
// 6–60 events a window, is within ±10 % (the VM's run-to-run spread) from
// 130 to 370, and wins 24–28 % at 850–950 (4,000 nodes, latency
// partitioner). macebench's
// simnet.sched_ns_per_event_sh2 driver swept from 8 to 65,536 no-op timers
// a window puts the cheapest possible events' break-even at 4,096, but no
// real schedule is both that cheap per event and that dense. Hosts that
// wake a core in microseconds break even lower still; the gate errs on the
// side of shards=N never losing to shards=1. The table is in
// docs/simnet.md ("When does -shards>1 help?").
const fanoutBreakEven = 512

// NewScheduler returns a single-shard scheduler seeded for reproducibility:
// today's sequential behavior.
func NewScheduler(seed int64) *Scheduler { return NewSharded(seed, 1) }

// NewSharded returns a scheduler with n event shards. n <= 1 selects the
// sequential loop. The shard count never changes results — only wall-clock
// time — provided the network installs its lookahead (simnet.New does).
func NewSharded(seed int64, n int) *Scheduler {
	if n < 1 {
		n = 1
	}
	s := &Scheduler{seed: seed, rng: rand.New(rand.NewSource(seed))}
	s.shards = make([]*shard, n)
	for i := range s.shards {
		s.shards[i] = &shard{id: i, sched: s, out: make([][]event, n)}
	}
	return s
}

// Shards returns the number of event shards.
func (s *Scheduler) Shards() int { return len(s.shards) }

// SetLookahead installs the conservative synchronization window: the minimum
// virtual-time distance any cross-shard interaction travels. The network
// derives it from the smallest cross-shard link latency. Sharded execution
// without a positive lookahead falls back to sequential stepping.
func (s *Scheduler) SetLookahead(d time.Duration) { s.lookahead = d }

// Lookahead returns the installed synchronization window.
func (s *Scheduler) Lookahead() time.Duration { return s.lookahead }

// Seed returns the seed the scheduler was built with.
func (s *Scheduler) Seed() int64 { return s.seed }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return epoch.Add(s.now) }

// Elapsed returns virtual time since the simulation epoch.
func (s *Scheduler) Elapsed() time.Duration { return s.now }

// Rand returns the simulation's seeded PRNG. All randomness in an experiment
// must come from here (or from PRNGs it seeds) for runs to reproduce. It
// must only be used from the coordinating goroutine (setup code and event
// drivers), never from per-shard event handlers.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Executed returns the number of events run so far. Like Pending it is
// coordinator-only: workers are parked whenever it runs, and the window
// hand-off provides the happens-before edge.
func (s *Scheduler) Executed() uint64 {
	n := s.executed
	for _, sh := range s.shards {
		n += sh.executed
	}
	return n
}

// BarrierStall returns the accumulated barrier-stall time: virtual time
// between the engine frontier and each global-actor event instant. In a
// sharded run this is exactly the window the barrier protocol forces the
// coordinator to drain single-threaded; the sequential loop accrues the
// identical quantity per global-actor pop, so the total is shard-invariant.
func (s *Scheduler) BarrierStall() time.Duration { return s.stall }

// noteBarrier accrues stall for a global-actor event instant t. prev is
// the engine frontier: the latest shard clock (the last executed shard
// event, or the end of the previous RunFor) or the last noted barrier,
// whichever is later. Cancelled global timers still note their instant — a
// sharded run drains a barrier for them regardless.
func (s *Scheduler) noteBarrier(t time.Duration) {
	prev := s.lastSync
	for _, sh := range s.shards {
		if sh.now > prev {
			prev = sh.now
		}
	}
	if t > prev {
		s.stall += t - prev
	}
	s.lastSync = t
}

// Pending returns the number of events waiting, cancelled ones included.
func (s *Scheduler) Pending() int {
	n := s.global.size()
	for _, sh := range s.shards {
		n += sh.timers.size() + sh.packets.size()
	}
	return n
}

// simTimer implements substrate.Timer by lazy cancellation. It holds its
// callback and its scheduling context — ep's vertex actor on ep's shard, or
// the global actor when ep is nil — and every arm (After, then each Reset)
// pushes one evFunc record stamped with a fresh generation. A record runs only
// if its timer is still pending at the generation it carries, so Stop and
// Reset cancel by moving the timer's state, never by touching the heap. A
// timer is only touched by contexts owned by its shard (or by the coordinator
// between epochs), so no locking is needed.
type simTimer struct {
	fn      func()
	sched   *Scheduler
	ep      *endpoint // nil: the global actor
	gen     uint64
	pending bool
}

// Stop cancels the timer if still pending.
func (t *simTimer) Stop() bool {
	was := t.pending
	t.pending = false
	return was
}

// Reset re-arms the callback after d. It takes the next sequence number of
// the timer's actor and pushes the record that Stop followed by After would
// push — same key, same heap — so a re-armed timer is keyed and ordered
// exactly like a fresh one.
func (t *simTimer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.gen++
	t.pending = true
	s, e := t.sched, event{tm: t, gen: t.gen}
	if ep := t.ep; ep != nil {
		ep.actorSeq++
		s.scheduleEv(ep.shard, ep.shard, addSat(s.timeOn(ep.shard), d), s.net.vertexActor(ep.vertex), ep.actorSeq, e)
		return
	}
	s.globalSeq++
	e.eventKey = eventKey{at: addSat(s.now, d), actor: actorGlobal, seq: s.globalSeq}
	// One shard keeps global events with its own timers; several keep them
	// apart, for the barriers.
	if len(s.shards) == 1 {
		s.shards[0].push(e)
	} else {
		s.global.push(e)
	}
}

// live resolves a popped event's lazy cancellation: a timer record runs only
// if its timer is pending at the record's generation, and running it leaves
// the timer fired.
func (e *event) live() bool {
	if t := e.tm; t != nil {
		if !t.pending || t.gen != e.gen {
			return false
		}
		t.pending = false
	}
	return true
}

// Event kinds. The zero value is evFunc, so every timer record (node
// timers, global control ops) dispatches unchanged. The network
// kinds are flat records: the packet hot path schedules them without
// allocating a closure per event (see network.go). A pipe finishing a
// packet's serialization is not an event: the bytes leave the queue lazily
// (see linkState.settle).
const (
	evFunc    uint8 = iota // run tm's callback (timers, scenario control, test drivers)
	evArrive               // a packet advances to its next hop's vertex
	evDeliver              // loopback delivery at the destination endpoint
)

// eventKey is the deterministic total order: actor identifies the logical
// scheduling context (0 = global, 1+vertex for endpoints, 1+numVertices+link
// for pipes) and seq is that actor's private counter. Because every actor
// schedules from exactly one shard, the key assignment — and therefore the
// execution order — is independent of how many shards run.
type eventKey struct {
	at    time.Duration
	actor uint64
	seq   uint64
}

func (a *eventKey) less(b *eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.actor != b.actor {
		return a.actor < b.actor
	}
	return a.seq < b.seq
}

// event is one timer record or flat network record.
//
// Network events carry their operands inline instead of in a closure: kind
// selects the operation and (pkt, arg) parameterize it; the shard it runs on
// is the one that popped it. This is the zero-alloc hot path — a closure per
// packet hop used to be the dominant allocation of a large run. A timer
// record carries its timer, which holds the callback, and the generation it
// was armed at (see simTimer).
type event struct {
	eventKey
	tm   *simTimer // evFunc
	gen  uint64    // evFunc: tm's generation when this record was pushed
	pkt  *packet   // evArrive, evDeliver
	arg  int32     // evArrive: next hop index
	kind uint8
}

// exec dispatches one event, popped by the given shard, against the network
// owning the flat records.
func (e *event) exec(n *Network, shard int) {
	switch e.kind {
	case evFunc:
		e.tm.fn()
	case evArrive:
		n.arriveHop(shard, e.pkt, int(e.arg))
	case evDeliver:
		n.deliverLoopback(shard, e.pkt)
	}
}

// eventHeap is a binary min-heap ordered by eventKey, implemented directly
// on the slice. The generic container/heap would box every event into an
// interface{} on Push — one heap allocation per scheduled event, which at
// scale dominates the allocation profile. The key is a strict total order
// ((actor, seq) pairs are unique), so the pop sequence — and therefore
// every trace — is independent of the heap's internal arrangement. Both
// sifts move a hole instead of swapping: one record copy per level.
//
// pop is lazy: it takes the root and leaves it vacant. A packet hop is
// popped and, a few dozen nanoseconds later, schedules exactly one
// successor; push puts that successor in the vacant root and sifts it down
// — one sift where a classic pop (last leaf to the root, sift down) plus a
// push (sift up) make two. Every read (top, size, items, the next pop)
// first repairs a vacancy nobody filled, the classic way. Nothing outside
// these methods indexes s.
type eventHeap struct {
	s    []event
	hole bool // s[0] is vacant
}

// repair fills the vacant root with the last leaf. Callers test hole
// themselves so that they, unlike repair, stay small enough to inline.
func (h *eventHeap) repair() {
	h.hole = false
	n := len(h.s) - 1
	last := h.s[n]
	h.s[n] = event{} // release timer and packet references
	h.s = h.s[:n]
	if n > 0 {
		h.siftDown(&last)
	}
}

// siftDown stores e at the root, whose slot is free, and restores the order.
func (h *eventHeap) siftDown(e *event) {
	s := h.s
	n := len(s)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].less(&s[c].eventKey) {
			c = r
		}
		if !s[c].less(&e.eventKey) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = *e
}

func (h *eventHeap) push(e event) {
	if h.hole {
		h.hole = false
		h.siftDown(&e)
		return
	}
	s := append(h.s, event{})
	h.s = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(&s[parent].eventKey) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *eventHeap) pop() event {
	if h.hole {
		h.repair()
	}
	h.hole = true
	return h.s[0]
}

// top returns the earliest event without removing it, nil when empty. The
// pointer is good until the heap is next touched.
func (h *eventHeap) top() *event {
	if h.hole {
		h.repair()
	}
	if len(h.s) == 0 {
		return nil
	}
	return &h.s[0]
}

// size is the number of events held; a vacant root is not one.
func (h *eventHeap) size() int {
	if h.hole {
		h.repair()
	}
	return len(h.s)
}

// items returns the heap's array, the heap's own: callers copy it.
func (h *eventHeap) items() []event {
	if h.hole {
		h.repair()
	}
	return h.s
}

// restore replaces the contents with a copy of evts, which must already be
// in heap order (some heap's items). The copy goes into the heap's own array
// when it has room, and no slot past the new contents keeps a reference.
func (h *eventHeap) restore(evts []event) {
	old := len(h.s)
	h.s, h.hole = append(h.s[:0], evts...), false
	if old > len(h.s) {
		clear(h.s[len(h.s):old])
	}
}

// shard is one partition of the event loop: two heaps plus the shard's own
// virtual clock. Nothing here is locked. The heaps, the clock and the stamp
// belong to whichever goroutine is running the shard's window — a worker,
// or the coordinator — and to the coordinator alone while workers are
// parked; the window hand-off over run/done is the ordering edge.
type shard struct {
	id    int
	sched *Scheduler

	// Pending events by kind: closures (node timers, and on a one-shard
	// scheduler the global actor's events) in timers, flat packet records in
	// packets. Nearly every pending event is a timer seconds away while
	// nearly every pop and push is a packet hop milliseconds away; apart, a
	// hop sifts through the few dozen packets in flight instead of through
	// every armed timer. next merges the two by the full key.
	timers  eventHeap
	packets eventHeap
	// out[b] parks the events this shard's handlers schedule onto shard b
	// while windows are fanned out; the coordinator merges them into b's
	// heaps after the join. The lookahead already guarantees such events are
	// due at or beyond the window's horizon, so b never needed them sooner.
	out [][]event

	now time.Duration // local virtual time (== last executed event)
	// cur is the latest key this shard has executed (global events at a
	// barrier and the end of a RunFor stamp every shard). Every event
	// ordered before it has run; pipes settle their queues against it.
	cur      eventKey
	executed uint64

	// run hands the shard's worker a window (execute everything due before
	// the instant) and done is its reply. Both are nil, and no worker
	// exists, until the first window that fans out to this shard.
	run  chan time.Duration
	done chan struct{}
}

// stamp records k as executing. Keys almost always rise; one that does not
// (a handler scheduling onto a lower-numbered actor at the current instant)
// leaves the stamp where it is, because everything below the stamp has run.
func (sh *shard) stamp(k *eventKey) {
	if sh.cur.less(k) {
		sh.cur = *k
	}
}

// push files e under its kind.
func (sh *shard) push(e event) {
	if e.kind == evFunc {
		sh.timers.push(e)
	} else {
		sh.packets.push(e)
	}
}

// next returns the heap holding the shard's earliest event and that event,
// nil when nothing is pending. Ties on the instant are real — a
// loopback delivery and a timer of one node share an actor and differ in
// seq only — so the two tops compare by the whole key.
func (sh *shard) next() (*eventHeap, *event) {
	t, p := sh.timers.top(), sh.packets.top()
	if p != nil && (t == nil || p.less(&t.eventKey)) {
		return &sh.packets, p
	}
	return &sh.timers, t
}

// runWindow executes every event due before until, in key order.
func (sh *shard) runWindow(until time.Duration) {
	net := sh.sched.net
	for {
		h, top := sh.next()
		if top == nil || top.at >= until {
			return
		}
		e := h.pop()
		if !e.live() {
			continue
		}
		if e.at > sh.now {
			sh.now = e.at
		}
		sh.stamp(&e.eventKey)
		sh.executed++
		e.exec(net, sh.id)
	}
}

// serve is the worker loop.
func (sh *shard) serve() {
	for until := range sh.run {
		sh.runWindow(until)
		sh.done <- struct{}{}
	}
}

// scheduleEv enqueues a prepared event on shard to, stamped with its
// deterministic key, on behalf of code executing on shard from. Callers own
// the (actor, seq) counters. Only a cross-shard push during a fanned-out
// window is deferred to an outbox; every other push — the shard feeding
// itself, the coordinator with the workers parked — goes straight to the
// target's heaps.
func (s *Scheduler) scheduleEv(from, to int, at time.Duration, actor, seq uint64, e event) {
	e.eventKey = eventKey{at: at, actor: actor, seq: seq}
	if from != to && s.fanned {
		sh := s.shards[from]
		sh.out[to] = append(sh.out[to], e)
		return
	}
	s.shards[to].push(e)
}

// merge moves what the given shards parked in their outboxes into the
// target heaps. Insertion order is irrelevant: keys are unique.
func (s *Scheduler) merge(from []*shard) {
	for _, sh := range from {
		for to, evs := range sh.out {
			if len(evs) == 0 {
				continue
			}
			target := s.shards[to]
			for i := range evs {
				target.push(evs[i])
				evs[i] = event{}
			}
			sh.out[to] = evs[:0]
		}
	}
}

// Fanout runs fn(shard) for each listed shard on its own goroutine and
// returns when all have: the window protocol opened to set-up code (the
// harness constructs a join herd's nodes this way). While fn(shard) runs it
// owns that shard exactly as a window would — it may schedule onto it and
// send from its endpoints — and what it schedules onto other shards is
// merged after the join. Coordinator-only: between RunFor calls or from a
// global event.
func (s *Scheduler) Fanout(shards []int, fn func(shard int)) {
	from := make([]*shard, len(shards))
	var wg sync.WaitGroup
	s.fanned = true
	for i, id := range shards {
		from[i] = s.shards[id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(id)
		}()
	}
	wg.Wait()
	s.fanned = false
	s.merge(from)
}

// timeOn returns the current virtual time as seen from a shard: the later
// of the shard's own clock (current while its events execute) and the
// global clock (current from the coordinator between epochs). Both reads
// are safe from either context — the epoch barrier orders all writes.
func (s *Scheduler) timeOn(shardID int) time.Duration {
	if sh := s.shards[shardID]; sh.now > s.now {
		return sh.now
	}
	return s.now
}

// addSat returns t + d for a non-negative d, saturating at the end of
// virtual time: a timer set for "never" stays in the future instead of
// wrapping around into the past.
func addSat(t, d time.Duration) time.Duration {
	if at := t + d; at >= t {
		return at
	}
	return math.MaxInt64
}

// After schedules fn to run once after d of virtual time. A non-positive d
// runs fn at the current instant, after already-queued global events for
// that instant. The returned timer cancels it.
//
// After uses the global actor: in a sharded run such events execute at
// epoch barriers with every shard synchronized at exactly that instant, so
// they may touch cross-shard state (the scenario engine's control events
// rely on this). After must be called from the coordinating goroutine, not
// from event handlers; emulated nodes schedule through their NodeSubstrate
// clock instead.
func (s *Scheduler) After(d time.Duration, fn func()) substrate.Timer {
	t := &simTimer{fn: fn, sched: s}
	t.Reset(d)
	return t
}

// earliest finds the heap holding the earliest pending event and that event:
// sh is nil for the global heap, and top is nil when nothing is pending.
func (s *Scheduler) earliest() (h *eventHeap, top *event, sh *shard) {
	h, top = &s.global, s.global.top()
	for _, c := range s.shards {
		if ch, ct := c.next(); ct != nil && (top == nil || ct.less(&top.eventKey)) {
			h, top, sh = ch, ct, c
		}
	}
	return h, top, sh
}

// step runs the next event in deterministic order if it is due at or before
// limit, and reports whether one ran. It is the whole sequential engine —
// Step, RunUntilIdle, the one-shard RunFor and the barrier drain are loops
// around it: pop the earliest event, resolve its lazy cancellation, note a
// barrier for the global actor, advance the clocks, stamp the key, execute.
func (s *Scheduler) step(limit time.Duration) bool {
	for {
		h, top, sh := s.earliest()
		if top == nil || top.at > limit {
			return false
		}
		e := h.pop()
		if e.actor == actorGlobal {
			s.noteBarrier(e.at)
		}
		if !e.live() {
			continue
		}
		if e.at > s.now {
			s.now = e.at
		}
		id := 0
		if e.actor == actorGlobal {
			// Every shard is at this instant and nothing else runs: the
			// handler may send from any endpoint.
			for _, c := range s.shards {
				c.stamp(&e.eventKey)
			}
		} else {
			if e.at > sh.now {
				sh.now = e.at
			}
			sh.stamp(&e.eventKey)
			id = sh.id
		}
		s.executed++
		e.exec(s.net, id)
		return true
	}
}

// Step runs the next event in deterministic order, if any, and reports
// whether one ran. Stepping is always sequential and always valid: sharded
// execution produces exactly the order Step walks.
func (s *Scheduler) Step() bool { return s.step(math.MaxInt64) }

// RunFor advances virtual time by d, executing every event due in that
// window, and leaves the clock exactly d later even if the queue drains. A
// non-positive d still runs what is due at the current instant.
func (s *Scheduler) RunFor(d time.Duration) {
	if d < 0 {
		d = 0
	}
	deadline := addSat(s.now, d)
	if len(s.shards) == 1 || s.lookahead <= 0 {
		for s.step(deadline) {
		}
	} else {
		s.runSharded(deadline)
	}
	s.now = deadline
	// Everything due through the deadline has run, whatever its key.
	end := eventKey{at: deadline, actor: math.MaxUint64, seq: math.MaxUint64}
	for _, sh := range s.shards {
		sh.now = deadline
		sh.cur = end
	}
}

// runSharded is the epoch loop: shards execute their queues in parallel up
// to a horizon no interaction can cross (the lookahead), and global events
// run single-threaded at barriers where every shard sits at exactly the
// same instant. Determinism holds because events execute in (at, actor,
// seq) order within each shard and cross-shard effects always land at or
// beyond the horizon.
func (s *Scheduler) runSharded(deadline time.Duration) {
	for {
		_, top, _ := s.earliest()
		if top == nil || top.at > deadline {
			return
		}
		start := max(top.at, s.now)
		horizon := start + s.lookahead
		var tg time.Duration = -1
		if g := s.global.top(); g != nil {
			tg = g.at
		}
		switch {
		case tg >= 0 && tg <= deadline && tg <= horizon:
			// A global event is within reach: run everything strictly
			// before it in parallel, then drain the barrier instant — its
			// global and per-shard events, including ones spawned during
			// the drain — single-threaded in key order.
			s.parallel(tg)
			for s.step(tg) {
			}
			s.now = tg
		case horizon > deadline:
			// Final stretch: nothing global remains in the window and no
			// cross-shard effect of it can land inside it.
			s.parallel(deadline + 1)
			s.now = deadline
		default:
			s.parallel(horizon)
			s.now = horizon
		}
	}
}

// parallel runs one window: every event due before until, on every shard.
// Shards with nothing due are skipped entirely: nothing can add sub-horizon
// work to an idle shard mid-window (cross-shard pushes land at or beyond
// the horizon, and a shard only feeds itself while its own events execute).
//
// The busy shards run one after another on the coordinator when there is
// only one of them or when the previous window was sparse (fewer than
// fanoutBreakEven events): a sparse schedule then costs no channel hops at
// all. Otherwise they fan out, the coordinator taking the first itself.
// Either way each shard executes the same events in the same order, so the
// choice is invisible in every output.
func (s *Scheduler) parallel(until time.Duration) {
	active := s.active[:0]
	var before uint64
	for _, sh := range s.shards {
		if _, top := sh.next(); top != nil && top.at < until {
			active = append(active, sh)
			before += sh.executed
		}
	}
	s.active = active
	if len(active) == 0 {
		return
	}
	s.windows++
	if len(active) == 1 || s.lastWindow < fanoutBreakEven {
		for _, sh := range active {
			sh.runWindow(until)
		}
	} else {
		s.dispatched++
		s.fanned = true
		for _, sh := range active[1:] {
			if sh.run == nil {
				// A worker exists from the first window its shard is
				// handed: a run that never fans out starts no goroutine.
				sh.run = make(chan time.Duration)
				sh.done = make(chan struct{})
				go sh.serve()
			}
			sh.run <- until
		}
		active[0].runWindow(until)
		for _, sh := range active[1:] {
			<-sh.done
		}
		s.fanned = false
		s.merge(active)
	}
	var after uint64
	for _, sh := range active {
		after += sh.executed
	}
	s.lastWindow = after - before
}

// RunUntilIdle executes events until none remain. Protocols with periodic
// timers never go idle; prefer RunFor for those. RunUntilIdle steps
// sequentially regardless of the shard count.
func (s *Scheduler) RunUntilIdle() {
	for s.Step() {
	}
}

// Close releases the shard worker goroutines. The scheduler must not run
// afterwards. Harmless to call more than once, or on a scheduler that
// never went parallel; callers that create many sharded schedulers in one
// process (benchmarks, the golden corpus) would otherwise leak one parked
// goroutine per shard per run.
func (s *Scheduler) Close() {
	s.closed.Do(func() {
		for _, sh := range s.shards {
			if sh.run != nil {
				close(sh.run)
			}
		}
	})
}
