package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"macedon/internal/overlay"
)

// TestEventHeapAgainstSort drives an eventHeap through seeded random
// interleavings of every method and compares it with a sorted slice after
// each step. Keys repeat at and actor on purpose, so ties are settled by the
// later fields. The vacant root pop leaves behind has five ways out — a push
// fills it, or pop, items, size or top repairs it — and a pop that empties
// the heap leaves one too; every one must be taken at least once.
func TestEventHeapAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2004))
	var h eventHeap
	var ref []eventKey // sorted
	seq := uint64(0)
	after := map[string]int{} // what followed a pop
	lastPop, emptied := false, false

	insert := func(k eventKey) {
		i := sort.Search(len(ref), func(i int) bool { return k.less(&ref[i]) })
		ref = append(ref, eventKey{})
		copy(ref[i+1:], ref[i:])
		ref[i] = k
	}
	check := func(op string) {
		if lastPop {
			after[op]++
			if emptied && op == "push" {
				after["empty→push"]++
			}
		}
		lastPop, emptied = op == "pop", op == "pop" && len(ref) == 0
	}
	pushes := 4 // of ten steps, against three pops; two against five while the heap drains
	for step := 0; step < 20000; step++ {
		switch {
		case len(ref) == 0:
			pushes = 4
		case len(ref) == 200:
			pushes = 2
		}
		op := rng.Intn(10)
		if len(ref) == 0 && op < 7 {
			op = 0
		}
		switch {
		case op < pushes:
			seq++
			k := eventKey{at: time.Duration(rng.Intn(8)), actor: uint64(rng.Intn(4)), seq: seq}
			h.push(event{eventKey: k, arg: int32(seq)})
			insert(k)
			check("push")
		case op < 7:
			e := h.pop()
			if e.eventKey != ref[0] || e.arg != int32(e.seq) {
				t.Fatalf("step %d: pop = %+v, want key %+v", step, e, ref[0])
			}
			ref = ref[1:]
			check("pop")
		case op == 7:
			top := h.top()
			if (top == nil) != (len(ref) == 0) || (top != nil && top.eventKey != ref[0]) {
				t.Fatalf("step %d: top = %+v, reference %+v", step, top, ref)
			}
			check("top")
		case op == 8:
			if h.size() != len(ref) {
				t.Fatalf("step %d: size = %d, want %d", step, h.size(), len(ref))
			}
			check("size")
		default:
			// items is a heap array holding exactly the reference's keys;
			// a copy of it handed to restore is the same heap.
			items := append([]event(nil), h.items()...)
			keys := make([]eventKey, len(items))
			for i := range items {
				keys[i] = items[i].eventKey
				if i > 0 && items[i].less(&items[(i-1)/2].eventKey) {
					t.Fatalf("step %d: items[%d] orders before its parent", step, i)
				}
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i].less(&keys[j]) })
			if !slices.Equal(keys, ref) {
				t.Fatalf("step %d: items hold %v, want %v", step, keys, ref)
			}
			h.restore(items)
			check("items")
		}
	}
	for _, op := range []string{"push", "pop", "items", "size", "top", "empty→push"} {
		if after[op] == 0 {
			t.Errorf("no pop was followed by %s: %v", op, after)
		}
	}
}

// TestSnapshotWithVacantRoot takes the checkpoint from inside a global event:
// the heap that event was popped from has a vacant root at that moment. The
// snapshot must hold the repaired heap — Pending() counts the same events
// before and after it — and a run restored from it must execute exactly the
// keys the original continuation did.
func TestSnapshotWithVacantRoot(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, n := buildPair(t, shards)
			defer s.Close()
			var trace []string
			for _, a := range []overlay.Address{1, 2} {
				sub, err := n.NodeNet(a)
				if err != nil {
					t.Fatal(err)
				}
				peer := 3 - a
				n.eps[a].SetRecv(func(src overlay.Address, p []byte) {
					trace = append(trace, fmt.Sprintf("%v recv %d @%v", a, len(p), sub.Elapsed()))
				})
				var tick func()
				tick = func() {
					trace = append(trace, fmt.Sprintf("%v tick @%v", a, sub.Elapsed()))
					_ = n.eps[a].Send(peer, make([]byte, 100+int(a)))
					sub.After(3*time.Millisecond, tick)
				}
				sub.After(time.Millisecond, tick)
			}
			var cpS *SchedulerSnapshot
			var cpN *NetworkSnapshot
			s.After(20*time.Millisecond, func() {
				before := s.Pending()
				cpS, cpN = s.Snapshot(), n.Snapshot()
				if got := s.Pending(); got != before || before == 0 {
					t.Errorf("Pending() = %d before the snapshot, %d after", before, got)
				}
				trace = append(trace, "global")
			})
			s.After(30*time.Millisecond, func() { trace = append(trace, "later global") })
			s.RunFor(20 * time.Millisecond)
			if cpS == nil {
				t.Fatal("the snapshot event never ran")
			}
			mark := len(trace)
			s.RunFor(40 * time.Millisecond)
			first := append([]string(nil), trace[mark:]...)

			s.Restore(cpS)
			n.Restore(cpN)
			trace = trace[:mark]
			// The event taking the snapshot had been popped: it is not in it.
			s.RunFor(40 * time.Millisecond)
			second := trace[mark:]
			if len(first) < 20 || fmt.Sprint(first) != fmt.Sprint(second) {
				t.Fatalf("continuations differ:\n first  %v\n second %v", first, second)
			}
		})
	}
}

// TestAfterSaturates: a delay that does not fit the clock means "never", on
// the global clock, on a node's clock, and for RunFor itself. All three
// additions used to wrap, so the timer fired at once and the clock ran
// backwards.
func TestAfterSaturates(t *testing.T) {
	s, n := buildPair(t, 1)
	defer s.Close()
	sub, err := n.NodeNet(1)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	fired := ""
	s.After(math.MaxInt64, func() { fired += "global " })
	sub.After(math.MaxInt64, func() { fired += "node " })
	s.RunFor(time.Second)
	if fired != "" || s.Pending() != 2 {
		t.Fatalf("timers set for never: fired %q, %d pending", fired, s.Pending())
	}

	idle := NewSharded(1, 2)
	defer idle.Close()
	idle.SetLookahead(time.Millisecond)
	for _, e := range []*Scheduler{NewScheduler(1), idle} {
		e.RunFor(time.Second)
		e.RunFor(math.MaxInt64)
		if e.Elapsed() != math.MaxInt64 {
			t.Fatalf("RunFor(MaxInt64) on an empty queue left the clock at %v", e.Elapsed())
		}
	}
}
