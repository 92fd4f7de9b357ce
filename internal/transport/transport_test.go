package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/simnet"
	"macedon/internal/substrate"
	"macedon/internal/topology"
)

// rig is a two-node emulated network with muxes on both ends.
type rig struct {
	sched *simnet.Scheduler
	net   *simnet.Network
	a, b  *Mux
}

func newRig(t *testing.T, cfg simnet.Config, midBW int64, midQueue int) *rig {
	t.Helper()
	return newWrappedRig(t, cfg, midBW, midQueue, func(ep substrate.Endpoint) substrate.Endpoint { return ep })
}

// newWrappedRig is newRig with both endpoints seen through wrap.
func newWrappedRig(t *testing.T, cfg simnet.Config, midBW int64, midQueue int, wrap func(substrate.Endpoint) substrate.Endpoint) *rig {
	t.Helper()
	g := topology.NewGraph()
	r1, r2 := g.AddRouter(), g.AddRouter()
	g.AddLink(r1, r2, 5*time.Millisecond, midBW, midQueue)
	g.AttachClient(1, r1, topology.DefaultAccess)
	g.AttachClient(2, r2, topology.DefaultAccess)
	s := simnet.NewScheduler(99)
	n := simnet.New(s, g, cfg)
	epa, err := n.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	epb, _ := n.Endpoint(2)
	return &rig{sched: s, net: n, a: NewMux(wrap(epa), n), b: NewMux(wrap(epb), n)}
}

type recvLog struct {
	frames [][]byte
	names  []string
	srcs   []overlay.Address
}

func (l *recvLog) fn() RecvFunc {
	return func(name string, src overlay.Address, frame []byte) {
		l.frames = append(l.frames, append([]byte(nil), frame...))
		l.names = append(l.names, name)
		l.srcs = append(l.srcs, src)
	}
}

func TestUDPSmallFrame(t *testing.T) {
	r := newRig(t, simnet.Config{}, 10_000_000, 64<<10)
	r.a.AddUDP("u")
	udp := r.b.AddUDP("u")
	var log recvLog
	r.b.SetRecv(log.fn())
	tr, err := r.a.ByName("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(2, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	r.sched.RunUntilIdle()
	if len(log.frames) != 1 || string(log.frames[0]) != "hello" || log.names[0] != "u" || log.srcs[0] != 1 {
		t.Fatalf("recv log = %+v", log)
	}
	if s := udp.Stats(); s.FramesRecv != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestUDPFragmentationRoundTrip(t *testing.T) {
	r := newRig(t, simnet.Config{}, 10_000_000, 1<<20)
	r.a.AddUDP("u")
	r.b.AddUDP("u")
	var log recvLog
	r.b.SetRecv(log.fn())
	tr, _ := r.a.ByName("u")
	big := make([]byte, 10_000)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := tr.Send(2, big); err != nil {
		t.Fatal(err)
	}
	r.sched.RunUntilIdle()
	if len(log.frames) != 1 || !bytes.Equal(log.frames[0], big) {
		t.Fatalf("fragmented frame corrupted (got %d frames)", len(log.frames))
	}
}

func TestUDPFragmentLossDropsWholeFrame(t *testing.T) {
	r := newRig(t, simnet.Config{LossRate: 0.3}, 10_000_000, 1<<20)
	r.a.AddUDP("u")
	r.b.AddUDP("u")
	var log recvLog
	r.b.SetRecv(log.fn())
	tr, _ := r.a.ByName("u")
	sent := 50
	for i := 0; i < sent; i++ {
		if err := tr.Send(2, make([]byte, 5000)); err != nil {
			t.Fatal(err)
		}
		r.sched.RunFor(50 * time.Millisecond)
	}
	r.sched.RunUntilIdle()
	if len(log.frames) >= sent {
		t.Fatalf("expected frame losses, got %d/%d", len(log.frames), sent)
	}
	for _, f := range log.frames {
		if len(f) != 5000 {
			t.Fatalf("partial frame delivered: %d bytes", len(f))
		}
	}
}

func TestTCPReliableInOrderUnderLoss(t *testing.T) {
	r := newRig(t, simnet.Config{LossRate: 0.05}, 10_000_000, 1<<20)
	r.a.AddTCP("t")
	r.b.AddTCP("t")
	var log recvLog
	r.b.SetRecv(log.fn())
	tr, _ := r.a.ByName("t")
	const n = 200
	for i := 0; i < n; i++ {
		frame := []byte(fmt.Sprintf("frame-%04d", i))
		if err := tr.Send(2, frame); err != nil {
			t.Fatal(err)
		}
	}
	r.sched.RunFor(5 * time.Minute)
	if len(log.frames) != n {
		t.Fatalf("delivered %d/%d frames", len(log.frames), n)
	}
	for i, f := range log.frames {
		if want := fmt.Sprintf("frame-%04d", i); string(f) != want {
			t.Fatalf("frame %d out of order: %q", i, f)
		}
	}
	if s := tr.Stats(); s.Retransmits == 0 {
		t.Fatalf("expected retransmissions under loss, stats=%+v", s)
	}
}

// TestTCPBulkUnderLossCompletes: a bulk stream long enough that an RTO
// fires while the receiver holds out-of-order data. The timeout rolls
// snd_nxt back to snd_una; the cumulative ack that follows the first
// retransmission then jumps past the rolled-back snd_nxt (the receiver
// already had the rest), and must still be accepted — discarding it used to
// wedge the connection for good.
func TestTCPBulkUnderLossCompletes(t *testing.T) {
	r := newRig(t, simnet.Config{LossRate: 0.01}, 10_000_000, 1<<20)
	r.a.AddTCP("t")
	r.b.AddTCP("t")
	delivered := 0
	r.b.SetRecv(func(_ string, _ overlay.Address, f []byte) {
		if want := fmt.Sprintf("%04d", delivered); len(f) != 1000 || string(f[:4]) != want {
			t.Fatalf("frame %d: %d bytes starting %q", delivered, len(f), f[:4])
		}
		delivered++
	})
	tr, _ := r.a.ByName("t")
	const n = 2000
	for i := 0; i < n; i++ {
		frame := make([]byte, 1000)
		copy(frame, fmt.Sprintf("%04d", i))
		if err := tr.Send(2, frame); err != nil {
			t.Fatal(err)
		}
	}
	r.sched.RunFor(10 * time.Minute)
	if delivered != n {
		t.Fatalf("delivered %d/%d frames: the stream wedged", delivered, n)
	}
}

func TestSWPReliableUnderLoss(t *testing.T) {
	r := newRig(t, simnet.Config{LossRate: 0.05}, 10_000_000, 1<<20)
	r.a.AddSWP("s", 8)
	r.b.AddSWP("s", 8)
	var log recvLog
	r.b.SetRecv(log.fn())
	tr, _ := r.a.ByName("s")
	const n = 100
	for i := 0; i < n; i++ {
		if err := tr.Send(2, []byte(fmt.Sprintf("pkt-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r.sched.RunFor(5 * time.Minute)
	if len(log.frames) != n {
		t.Fatalf("delivered %d/%d", len(log.frames), n)
	}
	for i, f := range log.frames {
		if want := fmt.Sprintf("pkt-%03d", i); string(f) != want {
			t.Fatalf("frame %d = %q, want %q", i, f, want)
		}
	}
}

func TestTCPLargeTransferThroughput(t *testing.T) {
	// 1 Mbps bottleneck: a 250 KB transfer should take roughly 2 s and
	// must complete (congestion control adapts to the bottleneck).
	r := newRig(t, simnet.Config{}, 1_000_000, 50*1500)
	r.a.AddTCP("t")
	r.b.AddTCP("t")
	var log recvLog
	r.b.SetRecv(log.fn())
	var doneAt time.Duration = -1
	r.b.SetRecv(func(_ string, _ overlay.Address, f []byte) {
		log.frames = append(log.frames, append([]byte(nil), f...))
		doneAt = r.sched.Elapsed()
	})
	tr, _ := r.a.ByName("t")
	payload := make([]byte, 250_000)
	if err := tr.Send(2, payload); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(2 * time.Minute)
	if len(log.frames) != 1 || len(log.frames[0]) != len(payload) {
		t.Fatalf("transfer incomplete: %d frames", len(log.frames))
	}
	if doneAt > 30*time.Second {
		t.Fatalf("250KB over 1Mbps took %v", doneAt)
	}
	// 250 KB over a 1 Mbps pipe needs at least 2 s even at full utilization.
	if doneAt < 2*time.Second {
		t.Fatalf("transfer finished impossibly fast: %v", doneAt)
	}
}

func TestTCPBacksOffSWPDoesNot(t *testing.T) {
	// Drive both disciplines through the same narrow, shallow-queued link
	// and compare emitted segments per delivered byte: TCP must be markedly
	// more economical because it backs off, SWP blasts its window.
	run := func(build func(m *Mux) Transport, install func(m *Mux)) (segments, retrans uint64, delivered int) {
		r := newRig(t, simnet.Config{}, 500_000, 5*1500)
		tr := build(r.a)
		install(r.b)
		var got int
		r.b.SetRecv(func(_ string, _ overlay.Address, f []byte) { got += len(f) })
		for i := 0; i < 40; i++ {
			_ = tr.Send(2, make([]byte, 10_000))
		}
		r.sched.RunFor(3 * time.Minute)
		s := tr.Stats()
		return s.Segments, s.Retransmits, got
	}
	tcpSeg, tcpRet, tcpGot := run(
		func(m *Mux) Transport { return m.AddTCP("x") },
		func(m *Mux) { m.AddTCP("x") })
	swpSeg, swpRet, swpGot := run(
		func(m *Mux) Transport { return m.AddSWP("x", 32) },
		func(m *Mux) { m.AddSWP("x", 32) })
	if tcpGot != 400_000 || swpGot != 400_000 {
		t.Fatalf("incomplete: tcp=%d swp=%d", tcpGot, swpGot)
	}
	if swpRet <= tcpRet {
		t.Fatalf("SWP should retransmit more on a congested link: tcp=%d swp=%d", tcpRet, swpRet)
	}
	if swpSeg <= tcpSeg {
		t.Fatalf("SWP should emit more segments: tcp=%d swp=%d", tcpSeg, swpSeg)
	}
}

func TestHeadOfLineBlockingAcrossTransports(t *testing.T) {
	// The paper's motivation for multiple transports: a bulk transfer on one
	// TCP instance must not delay a tiny control message on another.
	r := newRig(t, simnet.Config{}, 1_000_000, 20*1500)
	bulkA := r.a.AddTCP("bulk")
	ctrlA := r.a.AddTCP("ctrl")
	r.b.AddTCP("bulk")
	r.b.AddTCP("ctrl")
	var ctrlAt time.Duration = -1
	var bulkDone time.Duration = -1
	r.b.SetRecv(func(name string, _ overlay.Address, f []byte) {
		switch name {
		case "ctrl":
			ctrlAt = r.sched.Elapsed()
		case "bulk":
			bulkDone = r.sched.Elapsed()
		}
	})
	if err := bulkA.Send(2, make([]byte, 500_000)); err != nil {
		t.Fatal(err)
	}
	if err := ctrlA.Send(2, []byte("urgent")); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(2 * time.Minute)
	if ctrlAt < 0 || bulkDone < 0 {
		t.Fatalf("undelivered: ctrl=%v bulk=%v", ctrlAt, bulkDone)
	}
	if ctrlAt > bulkDone/4 {
		t.Fatalf("control message waited for bulk: ctrl at %v, bulk done %v", ctrlAt, bulkDone)
	}
	// And on a single shared instance it *does* wait — the blocked-transport
	// behaviour the grammar's multiple transports exist to avoid.
	r2 := newRig(t, simnet.Config{}, 1_000_000, 20*1500)
	one := r2.a.AddTCP("one")
	r2.b.AddTCP("one")
	var urgentAt time.Duration = -1
	var frames int
	r2.b.SetRecv(func(name string, _ overlay.Address, f []byte) {
		frames++
		if string(f) == "urgent" {
			urgentAt = r2.sched.Elapsed()
		}
	})
	_ = one.Send(2, make([]byte, 500_000))
	_ = one.Send(2, []byte("urgent"))
	r2.sched.RunFor(2 * time.Minute)
	if urgentAt < 0 {
		t.Fatal("urgent frame lost")
	}
	if urgentAt < ctrlAt*4 {
		t.Fatalf("expected head-of-line blocking on shared instance: shared=%v dedicated=%v", urgentAt, ctrlAt)
	}
}

func TestQueuedBytesVisibility(t *testing.T) {
	r := newRig(t, simnet.Config{}, 100_000, 10*1500)
	tr := r.a.AddTCP("t")
	r.b.AddTCP("t")
	r.b.SetRecv(func(string, overlay.Address, []byte) {})
	_ = tr.Send(2, make([]byte, 100_000))
	if q := tr.QueuedBytes(2); q == 0 {
		t.Fatal("bytes should be queued on a slow link")
	}
	if q := tr.QueuedBytes(99); q != 0 {
		t.Fatalf("unknown peer queued = %d", q)
	}
	r.sched.RunFor(time.Minute)
	if q := tr.QueuedBytes(2); q != 0 {
		t.Fatalf("queue should drain, still %d", q)
	}
}

func TestSendQueueCap(t *testing.T) {
	r := newRig(t, simnet.Config{}, 10_000, 2*1500) // 10 Kbps: nothing drains
	tr := r.a.AddTCP("t")
	r.b.AddTCP("t")
	var err error
	i := 0
	for ; i < 100; i++ {
		if err = tr.Send(2, make([]byte, 1<<20)); err != nil {
			break
		}
	}
	if err != ErrQueueFull {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	// Seven length-prefixed 1 MiB frames fit under the 8 MiB cap; the eighth
	// does not.
	if i != 7 {
		t.Fatalf("queue filled at frame %d, want 7", i)
	}
}

func TestFrameTooLarge(t *testing.T) {
	r := newRig(t, simnet.Config{}, 1_000_000, 10*1500)
	tcp := r.a.AddTCP("t")
	u := r.a.AddUDP("u")
	if err := tcp.Send(2, make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Fatalf("tcp oversize err = %v", err)
	}
	if err := u.Send(2, make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Fatalf("udp oversize err = %v", err)
	}
}

func TestByNameAndDuplicates(t *testing.T) {
	r := newRig(t, simnet.Config{}, 1_000_000, 10*1500)
	r.a.AddTCP("HIGH")
	if _, err := r.a.ByName("HIGH"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.a.ByName("LOW"); err == nil {
		t.Fatal("unknown name should error")
	}
	if got := len(r.a.transports); got != 1 {
		t.Fatalf("Transports len = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate transport name should panic")
		}
	}()
	r.a.AddUDP("HIGH")
}

func TestKindsReported(t *testing.T) {
	r := newRig(t, simnet.Config{}, 1_000_000, 10*1500)
	if k := r.a.AddTCP("a").Kind(); k != overlay.TCP {
		t.Fatalf("tcp kind = %v", k)
	}
	if k := r.a.AddUDP("b").Kind(); k != overlay.UDP {
		t.Fatalf("udp kind = %v", k)
	}
	if k := r.a.AddSWP("c", 0).Kind(); k != overlay.SWP {
		t.Fatalf("swp kind = %v", k)
	}
}

func TestCorruptDatagramsIgnored(t *testing.T) {
	r := newRig(t, simnet.Config{}, 1_000_000, 10*1500)
	r.a.AddTCP("t")
	r.b.AddTCP("t")
	var log recvLog
	r.b.SetRecv(log.fn())
	// Raw garbage straight onto the endpoint: unknown tid, short payloads.
	ep, _ := r.net.Endpoint(1)
	_ = ep // the mux owns the endpoint recv; send from a third party instead
	g := r.net.Graph()
	_ = g
	// Short/garbage datagrams from node 1's mux-owned endpoint can't be
	// forged here, so exercise the parse paths directly.
	r.b.onDatagram(1, nil)
	r.b.onDatagram(1, []byte{0})
	r.b.onDatagram(1, []byte{99, 0, 1, 2})       // unknown tid
	r.b.onDatagram(1, []byte{0, kindRelData, 1}) // short rel header
	r.b.onDatagram(1, []byte{0, kindRelAck, 1})  // short ack
	r.b.onDatagram(1, []byte{0, kindUDPFrag})    // wrong kind for tcp: ignored
	r.sched.RunUntilIdle()
	if len(log.frames) != 0 {
		t.Fatalf("garbage produced frames: %d", len(log.frames))
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	r := newRig(t, simnet.Config{LossRate: 0.02}, 5_000_000, 1<<20)
	ta := r.a.AddTCP("t")
	tb := r.b.AddTCP("t")
	var aGot, bGot int
	r.a.SetRecv(func(_ string, _ overlay.Address, f []byte) { aGot++ })
	r.b.SetRecv(func(_ string, _ overlay.Address, f []byte) { bGot++ })
	for i := 0; i < 50; i++ {
		_ = ta.Send(2, []byte("a->b"))
		_ = tb.Send(1, []byte("b->a"))
	}
	r.sched.RunFor(time.Minute)
	if aGot != 50 || bGot != 50 {
		t.Fatalf("a=%d b=%d, want 50/50", aGot, bGot)
	}
}

// TestReliablePeerRestart is the boot-stamp regression test: a peer that
// crashes and restarts builds a fresh mux whose stream offsets begin at
// zero, and both directions of every reliable connection must reset and
// keep working instead of wedging on stale sequence state. This is exactly
// what kill/revive churn does to every long-lived node in an experiment.
func TestReliablePeerRestart(t *testing.T) {
	for _, kind := range []string{"tcp", "swp"} {
		t.Run(kind, func(t *testing.T) {
			r := newRig(t, simnet.Config{}, 10_000_000, 64<<10)
			add := func(m *Mux) Transport { return addReliable(m, kind) }
			ta := add(r.a)
			add(r.b)
			var logB recvLog
			r.b.SetRecv(logB.fn())
			if err := ta.Send(2, []byte("before")); err != nil {
				t.Fatal(err)
			}
			r.sched.RunFor(time.Second)
			if len(logB.frames) != 1 || string(logB.frames[0]) != "before" {
				t.Fatalf("baseline frame lost: %q", logB.frames)
			}

			// Crash and restart node 1: detach the endpoint, advance the
			// clock (a restart is never instantaneous), and build the fresh
			// incarnation's mux. Its stream restarts at offset zero with a
			// newer boot stamp.
			r.a.Close()
			if err := r.net.Detach(1); err != nil {
				t.Fatal(err)
			}
			r.sched.RunFor(50 * time.Millisecond)
			epa, err := r.net.Endpoint(1)
			if err != nil {
				t.Fatal(err)
			}
			a2 := NewMux(epa, r.net)
			ta2 := add(a2)
			if err := ta2.Send(2, []byte("after-restart")); err != nil {
				t.Fatal(err)
			}
			r.sched.RunFor(2 * time.Second)
			if len(logB.frames) != 2 || string(logB.frames[1]) != "after-restart" {
				t.Fatalf("restarted sender wedged: got %d frames %q", len(logB.frames), logB.frames)
			}

			// And the surviving side must also be able to send toward the
			// restarted peer: node 2's old sender half reset on seeing the
			// new boot, so its stream restarts at zero too.
			var logA recvLog
			a2.SetRecv(logA.fn())
			tb, err := r.b.ByName("t")
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.Send(1, []byte("welcome-back")); err != nil {
				t.Fatal(err)
			}
			r.sched.RunFor(2 * time.Second)
			if len(logA.frames) != 1 || string(logA.frames[0]) != "welcome-back" {
				t.Fatalf("survivor-to-restartee wedged: %q", logA.frames)
			}
		})
	}
}

// TestReliableStaleInflightAfterRestart covers the reverse-direction wedge:
// the SURVIVOR has a partially-acknowledged stream in flight when the peer
// dies. Its RTO retransmissions (old stream, mid-stream offsets) reach the
// revived incarnation and land in the fresh out-of-order buffer; when the
// survivor finally learns of the restart and restarts its own stream at
// offset zero, the receiver must discard that stale buffer instead of
// splicing dead-incarnation bytes into the new stream once it grows past
// their offsets.
func TestReliableStaleInflightAfterRestart(t *testing.T) {
	r := newRig(t, simnet.Config{}, 10_000_000, 64<<10)
	r.a.AddTCP("t")
	tb := r.b.AddTCP("t")
	var logA1 recvLog
	r.a.SetRecv(logA1.fn())

	// B streams 16 KB toward A and gets part of it acknowledged, so B has
	// recorded A's boot and sndUna sits mid-stream when A dies.
	old := bytes.Repeat([]byte{0xAB}, 16<<10)
	if err := tb.Send(1, old); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(25 * time.Millisecond)
	if len(logA1.frames) != 0 {
		t.Fatal("old frame fully delivered before the kill; shrink the window")
	}
	r.a.Close()
	if err := r.net.Detach(1); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(1 * time.Second)

	// Revive A. B still knows nothing: its RTOs keep retransmitting the
	// old stream at mid-stream offsets, which the fresh incarnation can
	// only buffer out of order (its rcvNxt is zero).
	epa, err := r.net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	a2 := NewMux(epa, r.net)
	ta2 := a2.AddTCP("t")
	var logA recvLog
	a2.SetRecv(logA.fn())
	var logB recvLog
	r.b.SetRecv(logB.fn())
	r.sched.RunFor(8 * time.Second) // several RTO rounds of stale segments

	// Now the reborn node announces itself; B detects the new boot, drops
	// the dead stream, and sends fresh frames that must cross the stale
	// offsets intact.
	if err := ta2.Send(2, []byte("hello-from-reborn")); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(time.Second)
	tb2, err := r.b.ByName("t")
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xCD}, 8<<10)
	if err := tb2.Send(1, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := tb2.Send(1, big); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(10 * time.Second)

	if len(logB.frames) == 0 || string(logB.frames[0]) != "hello-from-reborn" {
		t.Fatalf("survivor never heard the reborn node: %q", logB.frames)
	}
	gotFresh, gotBig := false, false
	for _, f := range logA.frames {
		switch {
		case string(f) == "fresh":
			gotFresh = true
		case bytes.Equal(f, big):
			gotBig = true
		default:
			n := len(f)
			if n > 16 {
				n = 16
			}
			t.Fatalf("corrupt frame spliced from a dead stream: %d bytes %x...", len(f), f[:n])
		}
	}
	if !gotFresh || !gotBig {
		t.Fatalf("post-restart stream wedged: fresh=%v big=%v (%d frames)", gotFresh, gotBig, len(logA.frames))
	}
}

// TestRTOTimerKeptAcrossResets: a connection builds its retransmission timer
// on the first arm and re-arms that one timer for life. A flight interrupted
// by a peer reboot (resetSend) or a node stop (stopTimers) must not time out
// afterwards, and the flight sent next times out exactly once per RTO. Node 2
// is down throughout, so nothing is ever acknowledged and every armed flight
// runs into its timeout. Each interruption comes 500 ms into a flight, so
// the interrupted deadline falls inside the next flight's first RTO, where a
// stale timeout would show as a retransmission.
func TestRTOTimerKeptAcrossResets(t *testing.T) {
	for _, kind := range []string{"tcp", "swp"} {
		t.Run(kind, func(t *testing.T) {
			r := newRig(t, simnet.Config{}, 10_000_000, 64<<10)
			defer r.sched.Close()
			tr := addReliable(r.a, kind)
			addReliable(r.b, kind)
			if err := r.net.SetDown(2, true); err != nil {
				t.Fatal(err)
			}
			rel := tr.(*reliable)
			send := func(what string) {
				t.Helper()
				if err := tr.Send(2, []byte(what)); err != nil {
					t.Fatal(err)
				}
			}
			timeouts := func() uint64 { return tr.Stats().Retransmits }
			quiet := func(what string, d time.Duration) {
				t.Helper()
				before := timeouts()
				r.sched.RunFor(d)
				if got := timeouts() - before; got != 0 {
					t.Fatalf("%s: %d timeouts in %v, want none", what, got, d)
				}
			}

			send("first")
			c := rel.conns[2]
			kept := c.rtxTimer
			if kept == nil || !c.rtxArmed {
				t.Fatal("a flight in progress has no armed timer")
			}
			for _, stage := range []struct {
				name      string
				interrupt func()
			}{
				{"peer reboot", c.resetSend},
				{"node stop", rel.stopTimers},
			} {
				quiet(stage.name+": before the interruption", 500*time.Millisecond)
				r.a.mu.Lock()
				stage.interrupt()
				r.a.mu.Unlock()
				if c.rtxArmed {
					t.Fatalf("%s left the timer armed", stage.name)
				}
				rto := c.rto
				send(stage.name)
				quiet(stage.name+": the next flight's first RTO", rto-50*time.Millisecond)
				before := timeouts()
				r.sched.RunFor(100 * time.Millisecond)
				if got := timeouts() - before; got != 1 {
					t.Fatalf("%s: %d timeouts one RTO (%v) into the next flight, want exactly 1", stage.name, got, rto)
				}
				if c.rtxTimer != kept {
					t.Fatalf("%s: the connection built a second timer", stage.name)
				}
			}
		})
	}
}
