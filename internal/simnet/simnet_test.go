package simnet

import (
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/topology"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.After(2*time.Millisecond, func() { order = append(order, 2) })
	s.After(time.Millisecond, func() { order = append(order, 1) })
	s.After(2*time.Millisecond, func() { order = append(order, 3) }) // same time: FIFO
	s.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Elapsed() != 2*time.Millisecond {
		t.Fatalf("elapsed = %v", s.Elapsed())
	}
}

func TestSchedulerTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop should succeed")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report already stopped")
	}
	s.RunUntilIdle()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestSchedulerRunFor(t *testing.T) {
	s := NewScheduler(1)
	var fired []time.Duration
	var rearm func()
	rearm = func() {
		fired = append(fired, s.Elapsed())
		s.After(10*time.Millisecond, rearm)
	}
	s.After(10*time.Millisecond, rearm)
	s.RunFor(35 * time.Millisecond)
	if len(fired) != 3 {
		t.Fatalf("fired %d times: %v", len(fired), fired)
	}
	if s.Elapsed() != 35*time.Millisecond {
		t.Fatalf("clock = %v, want 35ms", s.Elapsed())
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	hits := 0
	s.After(0, func() {
		s.After(0, func() { hits++ })
		hits++
	})
	s.RunUntilIdle()
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
}

// twoNodeNet wires two clients across a single router.
func twoNodeNet(t *testing.T, access topology.AccessLink, cfg Config) (*Network, *Scheduler) {
	t.Helper()
	g := topology.NewGraph()
	r := g.AddRouter()
	r2 := g.AddRouter()
	g.AddLink(r, r2, 5*time.Millisecond, 1_000_000, 10*1500)
	g.AttachClient(1, r, access)
	g.AttachClient(2, r2, access)
	s := NewScheduler(7)
	return New(s, g, cfg), s
}

func TestDeliveryLatency(t *testing.T) {
	access := topology.AccessLink{Latency: time.Millisecond, Bandwidth: 10_000_000, QueueBytes: 64 << 10}
	n, s := twoNodeNet(t, access, Config{})
	e1, err := n.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := n.Endpoint(2)
	var got []byte
	var at time.Duration
	e2.SetRecv(func(src overlay.Address, p []byte) {
		if src != 1 {
			t.Errorf("src = %v", src)
		}
		got = append([]byte(nil), p...)
		at = s.Elapsed()
	})
	payload := make([]byte, 972) // 1000 bytes with header overhead
	if err := e1.Send(2, payload); err != nil {
		t.Fatal(err)
	}
	s.RunUntilIdle()
	if got == nil {
		t.Fatal("not delivered")
	}
	// Propagation: 1 + 5 + 1 = 7ms. Serialization: 1000B over 10Mbps = 0.8ms,
	// over 1Mbps = 8ms, over 10Mbps = 0.8ms => total 16.6ms.
	want := 7*time.Millisecond + 800*time.Microsecond + 8*time.Millisecond + 800*time.Microsecond
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	// Middle link: 1 Mbps with a 10-packet queue. Blast 100 packets at once.
	n, s := twoNodeNet(t, topology.DefaultAccess, Config{})
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)
	delivered := 0
	e2.SetRecv(func(overlay.Address, []byte) { delivered++ })
	for i := 0; i < 100; i++ {
		if err := e1.Send(2, make([]byte, 1400)); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntilIdle()
	st := n.Stats()
	if st.QueueDrops == 0 {
		t.Fatal("expected queue drops")
	}
	if delivered == 0 {
		t.Fatal("expected some deliveries")
	}
	if delivered+int(st.QueueDrops) != 100 {
		t.Fatalf("delivered %d + drops %d != 100", delivered, st.QueueDrops)
	}
}

func TestBandwidthCeiling(t *testing.T) {
	// Sustained send above the bottleneck rate must deliver at ~the
	// bottleneck rate (1 Mbps middle link).
	n, s := twoNodeNet(t, topology.DefaultAccess, Config{})
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)
	var deliveredBytes int
	e2.SetRecv(func(_ overlay.Address, p []byte) { deliveredBytes += len(p) })
	// Send 1400B every 5ms = 2.24 Mbps offered for 10s of virtual time.
	var tick func()
	stop := false
	tick = func() {
		if stop {
			return
		}
		_ = e1.Send(2, make([]byte, 1400))
		s.After(5*time.Millisecond, tick)
	}
	s.After(0, tick)
	s.RunFor(10 * time.Second)
	stop = true
	s.RunUntilIdle()
	rate := float64(deliveredBytes) * 8 / 10 // bits per second over 10s
	if rate > 1_050_000 {
		t.Fatalf("delivered %.0f bps, above 1 Mbps bottleneck", rate)
	}
	if rate < 700_000 {
		t.Fatalf("delivered %.0f bps, far below bottleneck", rate)
	}
}

func TestRandomLoss(t *testing.T) {
	n, s := twoNodeNet(t, topology.DefaultAccess, Config{LossRate: 0.5})
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)
	delivered := 0
	e2.SetRecv(func(overlay.Address, []byte) { delivered++ })
	for i := 0; i < 200; i++ {
		_ = e1.Send(2, make([]byte, 100))
		s.RunFor(10 * time.Millisecond) // space them out: no queue drops
	}
	s.RunUntilIdle()
	if delivered > 100 || delivered < 5 {
		t.Fatalf("delivered %d of 200 with three 50%% loss hops", delivered)
	}
	if n.Stats().RandomLoss == 0 {
		t.Fatal("loss counter untouched")
	}
}

func TestNodeDown(t *testing.T) {
	n, s := twoNodeNet(t, topology.DefaultAccess, Config{})
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)
	delivered := 0
	e2.SetRecv(func(overlay.Address, []byte) { delivered++ })
	if err := n.SetDown(2, true); err != nil {
		t.Fatal(err)
	}
	_ = e1.Send(2, []byte("x"))
	s.RunUntilIdle()
	if delivered != 0 {
		t.Fatal("delivered to a down node")
	}
	if err := n.SetDown(2, false); err != nil {
		t.Fatal(err)
	}
	_ = e1.Send(2, []byte("x"))
	s.RunUntilIdle()
	if delivered != 1 {
		t.Fatalf("delivered = %d after recovery", delivered)
	}
	if err := n.SetDown(99, true); err == nil {
		t.Fatal("SetDown of unknown address should fail")
	}
}

func TestLoopback(t *testing.T) {
	n, s := twoNodeNet(t, topology.DefaultAccess, Config{})
	e1, _ := n.Endpoint(1)
	got := false
	e1.SetRecv(func(src overlay.Address, p []byte) {
		if src != 1 {
			t.Errorf("loopback src = %v", src)
		}
		got = true
	})
	before := s.Elapsed()
	_ = e1.Send(1, []byte("self"))
	s.RunUntilIdle()
	if !got {
		t.Fatal("loopback not delivered")
	}
	if s.Elapsed() != before {
		t.Fatal("loopback should not advance time")
	}
}

func TestSendErrors(t *testing.T) {
	n, _ := twoNodeNet(t, topology.DefaultAccess, Config{})
	e1, _ := n.Endpoint(1)
	if err := e1.Send(2, make([]byte, MTU+1)); err == nil {
		t.Fatal("oversize datagram should be rejected")
	}
	if err := e1.Send(42, []byte("x")); err == nil {
		t.Fatal("send to unattached address should fail")
	}
	if _, err := n.Endpoint(42); err == nil {
		t.Fatal("endpoint for unattached address should fail")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, time.Duration) {
		g, err := topology.INET(topology.DefaultINET(50, 3))
		if err != nil {
			t.Fatal(err)
		}
		addrs := topology.AttachClients(g, 10, 1, topology.DefaultAccess, 3)
		s := NewScheduler(11)
		n := New(s, g, Config{LossRate: 0.01})
		for _, a := range addrs {
			ep, _ := n.Endpoint(a)
			ep.SetRecv(func(overlay.Address, []byte) {})
		}
		rng := s.Rand()
		for i := 0; i < 500; i++ {
			src, _ := n.Endpoint(addrs[rng.Intn(len(addrs))])
			dst := addrs[rng.Intn(len(addrs))]
			_ = src.Send(dst, make([]byte, 100+rng.Intn(1000)))
			s.RunFor(time.Millisecond)
		}
		s.RunUntilIdle()
		return n.Stats(), s.Elapsed()
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 || e1 != e2 {
		t.Fatalf("nondeterministic: %+v/%v vs %+v/%v", s1, e1, s2, e2)
	}
}

func TestLinkCounters(t *testing.T) {
	n, s := twoNodeNet(t, topology.DefaultAccess, Config{})
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)
	e2.SetRecv(func(overlay.Address, []byte) {})
	_ = e1.Send(2, make([]byte, 500))
	s.RunUntilIdle()
	var total uint64
	for _, l := range n.Graph().Links() {
		total += n.LinkCounters(l.ID).Packets
	}
	if total != 3 { // access out, middle, access in
		t.Fatalf("per-link packet total = %d, want 3", total)
	}
}

// TestRunForNeverRewinds pins the clock contract: RunFor with a zero or
// negative duration leaves every clock where it is (it used to move them
// back by |d|), and still runs what is due at the current instant.
func TestRunForNeverRewinds(t *testing.T) {
	for _, shards := range []int{1, 2} {
		g := topology.NewGraph()
		r1, r2 := g.AddRouter(), g.AddRouter()
		g.AddLink(r1, r2, time.Millisecond, 1_000_000, 10*1500)
		g.AttachClient(1, r1, topology.DefaultAccess)
		g.AttachClient(2, r2, topology.DefaultAccess)
		s := NewSharded(3, shards)
		n := New(s, g, Config{})
		sub, err := n.NodeNet(2)
		if err != nil {
			t.Fatal(err)
		}
		s.RunFor(10 * time.Millisecond)
		ran := 0
		s.After(0, func() { ran++ })
		sub.After(0, func() { ran++ })
		last := s.Elapsed()
		for _, d := range []time.Duration{-time.Second, 0, -1, time.Millisecond, -time.Hour, 0} {
			s.RunFor(d)
			if now := s.Elapsed(); now < last {
				t.Fatalf("shards=%d: RunFor(%v) moved the clock from %v back to %v", shards, d, last, now)
			}
			if now := sub.Elapsed(); now < last {
				t.Fatalf("shards=%d: RunFor(%v) moved a shard clock from %v back to %v", shards, d, last, now)
			}
			last = s.Elapsed()
			if ran != 2 {
				t.Fatalf("shards=%d: RunFor(%v) ran %d of the 2 events due at the current instant", shards, d, ran)
			}
		}
		if last != 11*time.Millisecond {
			t.Fatalf("shards=%d: clock = %v, want 11ms", shards, last)
		}
		s.Close()
	}
}

// TestOwedQueueMatchesModel drives one pipe's owed-release FIFO — the inline
// array, the spill, its refill and its compaction — with random bursts and
// settles, against a plain slice.
func TestOwedQueueMatchesModel(t *testing.T) {
	const actor = 7
	rng := uint64(42)
	draw := func(n uint64) int {
		rng = splitmix64(rng)
		return int(rng % n)
	}
	var ls linkState
	var model []owedRelease
	now := time.Duration(0)
	for step := 0; step < 200_000; step++ {
		if draw(3) > 0 {
			now += time.Duration(draw(3)) // equal instants happen
			r := owedRelease{at: now, size: int32(1 + draw(1500))}
			ls.owe(r)
			ls.queuedBytes += r.size
			model = append(model, r)
		} else {
			// Settle against a key somewhere around the queue's span, on
			// either side of the actor tie.
			cur := eventKey{actor: uint64(actor - 1 + draw(3))}
			if len(model) > 0 {
				cur.at = model[0].at + time.Duration(draw(uint64(model[len(model)-1].at-model[0].at)+2))
			}
			if ls.owedN > 0 {
				ls.settle(&cur, actor)
			}
			for len(model) > 0 && model[0].before(&cur, actor) {
				model = model[1:]
			}
		}
		var want int32
		for _, r := range model {
			want += r.size
		}
		got := int(ls.owedN)
		if ls.spill != nil {
			got += len(ls.spill.buf) - ls.spill.head
		}
		if ls.queuedBytes != want || got != len(model) || (ls.owedN == 0) != (len(model) == 0) {
			t.Fatalf("step %d: %d bytes in %d entries (%d inline), model has %d in %d",
				step, ls.queuedBytes, got, ls.owedN, want, len(model))
		}
	}
	if ls.spill == nil || cap(ls.spill.buf) > 1<<12 {
		t.Fatalf("spill never used, or grew without bound: %+v", ls.spill)
	}
}
