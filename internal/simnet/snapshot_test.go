package simnet

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/statecopy"
	"macedon/internal/topology"
)

// buildPair returns a two-client network for snapshot tests.
func buildPair(t *testing.T, shards int) (*Scheduler, *Network) {
	t.Helper()
	g := topology.NewGraph()
	r1, r2 := g.AddRouter(), g.AddRouter()
	g.AddLink(r1, r2, 5*time.Millisecond, 10_000_000, 64*1500)
	g.AttachClient(1, r1, topology.DefaultAccess)
	g.AttachClient(2, r2, topology.DefaultAccess)
	sched := NewSharded(7, shards)
	net := New(sched, g, Config{})
	return sched, net
}

// TestSchedulerSnapshotRewind proves a branch replays identically after a
// restore: timers, in-flight packets, and the per-link serialization state
// all rewind.
func TestSchedulerSnapshotRewind(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sched, net := buildPair(t, shards)
			defer sched.Close()
			var log []string
			sub1, err := net.NodeNet(1)
			if err != nil {
				t.Fatal(err)
			}
			ep2, err := net.Endpoint(2)
			if err != nil {
				t.Fatal(err)
			}
			ep2.SetRecv(func(src overlay.Address, payload []byte) {
				log = append(log, fmt.Sprintf("recv %v at %v", payload, sched.Elapsed()))
			})
			ep1, err := net.Endpoint(1)
			if err != nil {
				t.Fatal(err)
			}
			// A periodic sender plus an in-flight packet at snapshot time.
			// The sender's counter lives behind a pointer captured with
			// statecopy, the way the harness captures node state: scheduler
			// and network snapshots rewind the event loop, statecopy rewinds
			// the application state its closures point at.
			state := &struct{ seq byte }{}
			var tick func()
			tick = func() {
				state.seq++
				_ = ep1.Send(2, []byte{state.seq})
				sub1.After(3*time.Millisecond, tick)
			}
			sub1.After(0, tick)
			sched.RunFor(4 * time.Millisecond)

			cpS, cpN := sched.Snapshot(), net.Snapshot()
			cpApp := statecopy.Capture(state)
			branch := func() []string {
				log = nil
				// A branch-created timer that must vanish on restore, and a
				// snapshot-era cancellation that must come back pending.
				sched.RunFor(20 * time.Millisecond)
				return append([]string(nil), log...)
			}
			a := branch()
			sched.Restore(cpS)
			net.Restore(cpN)
			cpApp.Restore()
			seqAt := state.seq
			b := branch()
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("branches diverge:\nA: %v\nB: %v", a, b)
			}
			if state.seq == seqAt {
				t.Fatal("branch B sent nothing; timer state not restored")
			}
			if got, want := net.Stats(), net.Stats(); got != want {
				t.Fatalf("stats unstable: %v vs %v", got, want)
			}
		})
	}
}

// TestSnapshotTimerCancellation checks a timer pending at the snapshot that
// the branch stops (and one the branch lets fire) both come back pending.
func TestSnapshotTimerCancellation(t *testing.T) {
	sched, net := buildPair(t, 1)
	defer sched.Close()
	sub, err := net.NodeNet(1)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	tm := sub.After(10*time.Millisecond, func() { fired++ })
	cp := sched.Snapshot()

	// Branch 1: cancel it; never fires.
	tm.Stop()
	sched.RunFor(30 * time.Millisecond)
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
	// Branch 2: restored to pending; fires once.
	sched.Restore(cp)
	sched.RunFor(30 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("restored timer fired %d times, want 1", fired)
	}
	// Branch 3: restore again after it fired; fires again.
	sched.Restore(cp)
	sched.RunFor(30 * time.Millisecond)
	if fired != 2 {
		t.Fatalf("re-restored timer fired %d times total, want 2", fired)
	}
}

// TestRestoreRewindsReArmedTimer: owners re-arm one timer in place, so a
// branch moves the very timers a snapshot holds records for. A timer queued at
// the snapshot that the branch fires and re-arms comes back pending at its
// snapshot instant and fires once; a timer the branch alone armed — idle at
// the snapshot, its only run long over — fires not at all; and restoring the
// same snapshot again behaves the same.
func TestRestoreRewindsReArmedTimer(t *testing.T) {
	const ms = time.Millisecond
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sched, net := buildPair(t, shards)
			defer sched.Close()
			sub, err := net.NodeNet(1)
			if err != nil {
				t.Fatal(err)
			}
			var queuedAt, idleAt []time.Duration
			queued := sub.After(10*ms, func() { queuedAt = append(queuedAt, sub.Elapsed()) })
			idle := sub.After(ms, func() { idleAt = append(idleAt, sub.Elapsed()) })
			sched.RunFor(5 * ms) // idle has fired; queued is due at 10 ms
			cp := sched.Snapshot()
			pending := sched.Pending()
			for round := 1; round <= 2; round++ {
				queuedAt, idleAt = nil, nil
				sched.RunFor(7 * ms) // queued fires at 10 ms
				queued.Reset(20 * ms)
				idle.Reset(3 * ms)
				if len(queuedAt) != 1 || sched.Pending() <= pending {
					t.Fatalf("round %d: the branch fired %v and left %d pending", round, queuedAt, sched.Pending())
				}
				sched.Restore(cp)
				if sched.Pending() != pending {
					t.Fatalf("round %d: %d pending after Restore, want %d", round, sched.Pending(), pending)
				}
				queuedAt, idleAt = nil, nil
				sched.RunFor(60 * ms) // past the branch's instants: 15 ms (idle) and 32 ms (queued)
				if len(queuedAt) != 1 || queuedAt[0] != 10*ms {
					t.Fatalf("round %d: the re-armed timer fired at %v after Restore, want once at 10ms", round, queuedAt)
				}
				if len(idleAt) != 0 {
					t.Fatalf("round %d: a timer armed only in the branch fired at %v after Restore", round, idleAt)
				}
				sched.Restore(cp)
			}
		})
	}
}

// TestNetworkSnapshotDynamics checks injected dynamics rewind: a partition
// and a failed link applied in a branch are gone after restore.
func TestNetworkSnapshotDynamics(t *testing.T) {
	sched, net := buildPair(t, 1)
	defer sched.Close()
	cpS, cpN := sched.Snapshot(), net.Snapshot()

	net.SetPartition(map[overlay.Address]int{1: 1, 2: 2})
	if err := net.SetNodeAccessDown(1, true); err != nil {
		t.Fatal(err)
	}
	_ = net.SetDown(2, true)
	sched.Restore(cpS)
	net.Restore(cpN)

	if net.Partitioned(1, 2) {
		t.Fatal("partition survived restore")
	}
	up, _, _ := net.Graph().AccessLinks(1)
	if net.LinkDown(up) {
		t.Fatal("failed link survived restore")
	}
	delivered := 0
	ep2, _ := net.Endpoint(2)
	ep2.SetRecv(func(overlay.Address, []byte) { delivered++ })
	ep1, _ := net.Endpoint(1)
	_ = ep1.Send(2, []byte{1})
	sched.RunFor(time.Second)
	if delivered != 1 {
		t.Fatalf("delivery after restore: got %d, want 1 (node-down state leaked?)", delivered)
	}
}

// TestSchedulerSnapshotCarriesAccounting checks the scheduler's own counters
// rewind with it: a branch that crosses several global-event barriers leaves
// no trace in BarrierStall, Executed or Pending after Restore, and running
// the same stretch again reproduces the branch's three numbers.
func TestSchedulerSnapshotCarriesAccounting(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sched, net := buildPair(t, shards)
			defer sched.Close()
			sub1, err := net.NodeNet(1)
			if err != nil {
				t.Fatal(err)
			}
			ep1, _ := net.Endpoint(1)
			ep2, _ := net.Endpoint(2)
			ep2.SetRecv(func(overlay.Address, []byte) {})
			var tick func()
			tick = func() {
				_ = ep1.Send(2, make([]byte, 200))
				sub1.After(700*time.Microsecond, tick)
			}
			sub1.After(0, tick)
			// Global events well apart from the node's own: each one is a
			// barrier that sits ahead of the engine frontier.
			var global func()
			global = func() { sched.After(3*time.Millisecond+100*time.Microsecond, global) }
			sched.After(time.Millisecond, global)
			sched.RunFor(5 * time.Millisecond)

			type counts struct {
				stall    time.Duration
				executed uint64
				pending  int
			}
			read := func() counts { return counts{sched.BarrierStall(), sched.Executed(), sched.Pending()} }
			at := read()
			if at.stall == 0 {
				t.Fatal("no barrier stall accrued before the snapshot; the test checks nothing")
			}
			cpS, cpN := sched.Snapshot(), net.Snapshot()
			branch := func() counts {
				sched.RunFor(20 * time.Millisecond) // six more barriers
				return read()
			}
			a := branch()
			if a.stall <= at.stall || a.executed <= at.executed {
				t.Fatalf("branch accrued nothing: %+v -> %+v", at, a)
			}
			sched.Restore(cpS)
			net.Restore(cpN)
			if got := read(); got != at {
				t.Fatalf("after Restore: %+v, want the snapshot-time %+v", got, at)
			}
			if b := branch(); b != a {
				t.Fatalf("re-run of the same window: %+v, want %+v", b, a)
			}
		})
	}
}

// TestRestoreKeepsTreesForEqualCoreSet: Restore brings back the failure set
// and forwarding answers as it did at the snapshot; the oracle's trees
// survive it exactly when the failed core links are the ones they were built
// around — an access-link failure in the branch is no reason to flush, a
// core-link failure is. The shard route tables survive it exactly when the
// whole failure set is unchanged: any access- or core-link difference drops
// them.
func TestRestoreKeepsTreesForEqualCoreSet(t *testing.T) {
	n, s, fast := diamondNet(t)
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)
	var took time.Duration
	got := 0
	e2.SetRecv(func(overlay.Address, []byte) { got++ })
	send := func() bool { // reports whether a datagram 1→2 arrived
		t.Helper()
		start, before := s.Elapsed(), got
		if err := e1.Send(2, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		s.RunUntilIdle()
		took = s.Elapsed() - start
		return got == before+1
	}
	wantFast := func(when string) {
		t.Helper()
		if ok := send(); !ok || took > 10*time.Millisecond {
			t.Fatalf("%s: 1→2 delivered=%v in %v, want the fast path", when, ok, took)
		}
	}
	wantFast("baseline")
	_ = e2.Send(1, make([]byte, 100))
	s.RunUntilIdle()
	trees := n.live.CachedTrees()
	if trees != 2 {
		t.Fatalf("warm-up cached %d trees, want one per attachment router", trees)
	}
	cpS, cpN := s.Snapshot(), n.Snapshot()
	// cached is endpoint 1's route to 2 if a send would take it from the
	// shard table, without asking the oracle; nil otherwise.
	cached := func() []topology.LinkID { return cachedRoute(n, 1, 2) }
	route := cached()
	if route == nil {
		t.Fatal("warm-up left no cached route 1→2")
	}

	// Branch zero fails nothing: the restore keeps the endpoint's route.
	wantFast("in the failure-free branch")
	s.Restore(cpS)
	n.Restore(cpN)
	if again := cached(); again == nil || &again[0] != &route[0] {
		t.Fatal("restore to an equal failure set dropped the cached route 1→2")
	}
	wantFast("after the failure-free branch")

	// Branch one fails an access pipe only: the core set stays empty.
	if err := n.SetNodeAccessDown(2, true); err != nil {
		t.Fatal(err)
	}
	if send() {
		t.Fatal("delivered across a failed access pipe")
	}
	s.Restore(cpS)
	n.Restore(cpN)
	if got := n.live.CachedTrees(); got != trees {
		t.Fatalf("restore to an equal core set left %d trees, want the %d it had", got, trees)
	}
	if cached() != nil {
		t.Fatal("restore across an access-link difference kept the cached route 1→2")
	}
	wantFast("after the access-only branch")

	// Branch two also fails a core pipe: trees are rebuilt around it, and the
	// restore must not keep them.
	_ = n.SetNodeAccessDown(1, true)
	n.SetLinkDown(fast, true)
	_ = n.SetNodeAccessDown(1, false)
	if !send() || took < 40*time.Millisecond {
		t.Fatalf("under the core failure 1→2 took %v, want the slow path", took)
	}
	cpS2, cpN2 := s.Snapshot(), n.Snapshot() // a snapshot with the core pipe down
	s.Restore(cpS)
	n.Restore(cpN)
	if got := n.live.CachedTrees(); got != 0 {
		t.Fatalf("restore to a different core set kept %d trees", got)
	}
	if cached() != nil {
		t.Fatal("restore across a core-link difference kept the cached route 1→2")
	}
	wantFast("after the core branch")

	s.Restore(cpS2)
	n.Restore(cpN2)
	if !n.LinkDown(fast) || n.live.CachedTrees() != 0 {
		t.Fatalf("restore into the failure: down=%v trees=%d, want the pipe down and a flushed oracle",
			n.LinkDown(fast), n.live.CachedTrees())
	}
	if !send() || took < 40*time.Millisecond {
		t.Fatalf("restored into the core failure 1→2 took %v, want the slow path", took)
	}
}

// TestRestoreIntoHeapsWithRoomAllocatesNothing: a restore copies the
// snapshot's events into the heaps' own arrays, and the failure, degradation
// and partition sets into the network's own maps. A heap's array never
// shrinks, so it always has room for what it held at the snapshot, and
// rewinding allocates nothing — while every branch still replays the first.
func TestRestoreIntoHeapsWithRoomAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sched, net := buildPair(t, shards)
			defer sched.Close()
			sub1, err := net.NodeNet(1)
			if err != nil {
				t.Fatal(err)
			}
			ep1, _ := net.Endpoint(1)
			ep2, _ := net.Endpoint(2)
			var got []byte
			ep2.SetRecv(func(_ overlay.Address, p []byte) { got = append(got, p[0]) })
			var tick func()
			n := byte(0)
			tick = func() {
				n++
				_ = ep1.Send(2, []byte{n})
				sub1.After(700*time.Microsecond, tick)
			}
			sub1.After(0, tick)
			var global func()
			global = func() { sched.After(3*time.Millisecond, global) }
			sched.After(time.Millisecond, global)
			net.DegradeLink(0, Degradation{LatencyFactor: 2})
			sched.RunFor(5 * time.Millisecond)
			if sched.Pending() < 3 {
				t.Fatalf("%d events pending at the snapshot; the test checks nothing", sched.Pending())
			}
			cpS, cpN, cpApp := sched.Snapshot(), net.Snapshot(), statecopy.Capture(&n)
			branch := func() string {
				got = got[:0]
				sched.RunFor(20 * time.Millisecond)
				return fmt.Sprint(got)
			}
			first := branch()
			for round := 0; round < 3; round++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				sched.Restore(cpS)
				net.Restore(cpN)
				runtime.ReadMemStats(&after)
				cpApp.Restore()
				if after.Mallocs != before.Mallocs {
					t.Errorf("round %d: restore allocated %d times, want 0", round, after.Mallocs-before.Mallocs)
				}
				if b := branch(); b != first {
					t.Fatalf("round %d: branch %s, want %s", round, b, first)
				}
			}
		})
	}
}
