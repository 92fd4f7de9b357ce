package transport

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/simnet"
	"macedon/internal/substrate"
)

// These tests pin the buffer-ownership contract of docs/architecture.md
// ("Who owns a frame buffer"): Send copies what it keeps, the send queue is
// consumed in place, and a delivered frame is lent — a view of a datagram or
// of the connection's reassembly buffer, valid until the upcall returns.
// The receivers here check each frame inside its upcall, against what was
// sent, and never look at it again.

// testFrame is frame i of a transfer: n bytes, each depending on both the
// frame's index and the byte's position, so a frame spliced from another, or
// shifted within the stream, never compares equal.
func testFrame(i, n int) []byte {
	f := make([]byte, n)
	for j := range f {
		f[j] = byte(i*131 + j*7 + j>>8)
	}
	return f
}

func addReliable(m *Mux, kind string) Transport {
	if kind == "tcp" {
		return m.AddTCP("t")
	}
	return m.AddSWP("t", 8)
}

// shuffler is an endpoint that holds back and repeats datagrams by a seeded
// rule: of every eight it is asked to send, on average one waits until after
// the next datagram and one goes out twice. A reliable receiver behind it
// sees segments reordered and duplicated, which a FIFO emulated path never
// does without loss.
type shuffler struct {
	substrate.Endpoint
	rng  *rand.Rand
	held []heldDatagram
}

type heldDatagram struct {
	dst     overlay.Address
	payload []byte
}

func (s *shuffler) Send(dst overlay.Address, payload []byte) error {
	switch s.rng.Intn(8) {
	case 0:
		s.held = append(s.held, heldDatagram{dst, bytes.Clone(payload)}) // Send's caller reuses payload
		return nil
	case 1:
		if err := s.Endpoint.Send(dst, payload); err != nil {
			return err
		}
	}
	if err := s.Endpoint.Send(dst, payload); err != nil {
		return err
	}
	for _, h := range s.held {
		if err := s.Endpoint.Send(h.dst, h.payload); err != nil {
			return err
		}
	}
	s.held = s.held[:0]
	return nil
}

// shuffled wraps each endpoint of a rig in a shuffler of its own seed.
func shuffled() func(substrate.Endpoint) substrate.Endpoint {
	seed := int64(0)
	return func(ep substrate.Endpoint) substrate.Endpoint {
		seed++
		return &shuffler{Endpoint: ep, rng: rand.New(rand.NewSource(seed))}
	}
}

// TestReliableDeliveredFramesStayIntact streams frames of 1 B to 3×MSS over
// lossless, lossy, shallow-queue and reordering-plus-duplicating rigs, so
// frames are lent both straight from a datagram and from the reassembly
// buffer, with partial frames compacted in between and out-of-order segments
// held. It catches a
// compaction that clobbers bytes not yet delivered, an out-of-order segment
// or fragment kept as a view of a reused datagram, and a transport that
// keeps the caller's frame instead of copying it.
func TestReliableDeliveredFramesStayIntact(t *testing.T) {
	mss := simnet.MTU - 2 - relHeaderLen
	sizes := []int{1, 2, 7, 100, 999, 1000, mss - 5, mss - 4, mss - 3, mss, mss + 1, 2 * mss, 3 * mss}
	rigs := []struct {
		name    string
		loss    float64
		queue   int
		shuffle bool
	}{
		{"lossless", 0, 1 << 20, false},
		{"loss", 0.05, 1 << 20, false},
		{"small-queue", 0, 5 * 1500, false},
		{"loss+small-queue", 0.03, 5 * 1500, false},
		{"reorder+duplicate", 0, 1 << 20, true},
	}
	for _, kind := range []string{"tcp", "swp"} {
		for _, rc := range rigs {
			t.Run(kind+"/"+rc.name, func(t *testing.T) {
				wrap := func(ep substrate.Endpoint) substrate.Endpoint { return ep }
				if rc.shuffle {
					wrap = shuffled()
				}
				r := newWrappedRig(t, simnet.Config{LossRate: rc.loss}, 2_000_000, rc.queue, wrap)
				defer r.sched.Close()
				tr := addReliable(r.a, kind)
				addReliable(r.b, kind)
				var sent [][]byte
				delivered := 0
				r.b.SetRecv(func(_ string, _ overlay.Address, f []byte) {
					// Compared while lent: the bytes are only valid now.
					if delivered >= len(sent) || !bytes.Equal(f, sent[delivered]) {
						t.Fatalf("frame %d (%d bytes) arrived corrupt or out of order", delivered, len(f))
					}
					delivered++
				})

				send := func(n int) {
					f := testFrame(len(sent), n)
					sent = append(sent, f)
					// Send copies what it keeps: hand it a scratch buffer and
					// scribble over it afterwards.
					scratch := append([]byte(nil), f...)
					if err := tr.Send(2, scratch); err != nil {
						t.Fatal(err)
					}
					for j := range scratch {
						scratch[j] = 0xEE
					}
				}
				// Bursts with the clock running in between: acks consume the
				// send queue while new frames are appended behind them.
				for round := 0; round < 12; round++ {
					for _, n := range sizes {
						send(n)
					}
					r.sched.RunFor(40 * time.Millisecond)
				}
				r.sched.RunFor(5 * time.Minute)
				// A further burst into the connection's reused buffers.
				for i := 0; i < 40; i++ {
					send(sizes[i%len(sizes)])
				}
				r.sched.RunFor(5 * time.Minute)

				if delivered != len(sent) {
					t.Fatalf("delivered %d/%d frames", delivered, len(sent))
				}
				if rc.loss > 0 || rc.queue < 1<<20 {
					if s := tr.Stats(); s.Retransmits == 0 {
						t.Fatalf("rig produced no retransmissions: %+v", s)
					}
				}
				if rc.shuffle && r.b.transports[0].(*reliable).conns[1].ooo == nil {
					t.Fatal("rig never delivered a segment ahead of the stream")
				}
			})
		}
	}
}

// TestSendQueueCompaction drives the sender half white-box: acks are
// withheld by not running the clock, then released while new frames keep
// arriving behind them.
func TestSendQueueCompaction(t *testing.T) {
	r := newRig(t, simnet.Config{}, 10_000_000, 1<<20)
	defer r.sched.Close()
	tr := r.a.AddTCP("t")
	r.b.AddTCP("t")
	delivered := 0
	r.b.SetRecv(func(_ string, _ overlay.Address, f []byte) {
		if !bytes.Equal(f, testFrame(delivered, len(f))) {
			t.Fatalf("frame %d corrupt", delivered)
		}
		delivered++
	})
	c := r.a.transports[0].(*reliable).conn(2)

	var enqueued uint64
	peak, sentFrames, compactions := 0, 0, 0
	send := func(n int) error {
		headBefore := c.head
		err := tr.Send(2, testFrame(sentFrames, n))
		if err != nil {
			return err
		}
		sentFrames++
		enqueued += uint64(4 + n)
		if headBefore > 0 && c.head == 0 && len(c.buf) > 4+n {
			compactions++
		}
		return nil
	}
	check := func() {
		t.Helper()
		live := int(enqueued - c.sndUna)
		if q := tr.QueuedBytes(2); q != live {
			t.Fatalf("QueuedBytes = %d, want the %d live bytes (len(buf)=%d head=%d)", q, live, len(c.buf), c.head)
		}
		if s := tr.Stats(); s.SegmentsQueued != uint64(live) {
			t.Fatalf("SegmentsQueued = %d, want %d", s.SegmentsQueued, live)
		}
		peak = max(peak, live)
		if cap(c.buf) > 2*peak {
			t.Fatalf("cap(buf) = %d exceeds twice the peak of %d live bytes", cap(c.buf), peak)
		}
	}

	// Acks withheld: the queue only grows.
	for i := 0; i < 200; i++ {
		if err := send(1000); err != nil {
			t.Fatal(err)
		}
		check()
	}
	// Acks released a few at a time, with fresh frames appended behind the
	// advancing head. While the live bytes stay under half the array, room
	// comes from the dead prefix and the array never grows.
	withheldCap := cap(c.buf)
	for step := 0; step < 400; step++ {
		r.sched.RunFor(2 * time.Millisecond)
		for tr.QueuedBytes(2)+2*1004 <= peak/2 && sentFrames < 2000 {
			if err := send(1000); err != nil {
				t.Fatal(err)
			}
		}
		check()
	}
	if cap(c.buf) != withheldCap {
		t.Fatalf("array grew from %d to %d bytes with never more than %d live", withheldCap, cap(c.buf), peak/2)
	}
	r.sched.RunFor(time.Minute)
	check()
	if delivered != sentFrames {
		t.Fatalf("delivered %d/%d frames", delivered, sentFrames)
	}
	if compactions == 0 {
		t.Fatal("test never made Send reclaim a dead prefix")
	}
	if c.head != 0 || len(c.buf) != 0 || cap(c.buf) == 0 {
		t.Fatalf("drained queue: head=%d len=%d cap=%d, want an empty slice over the kept array", c.head, len(c.buf), cap(c.buf))
	}

	// sendQueueCap counts live bytes: with a dead prefix in front, a frame
	// that fits the live queue is accepted even though len(buf) plus the
	// frame is past the cap; and the cap still trips on live bytes.
	const big = 1 << 20
	for i := 0; i < 7; i++ {
		if err := send(big); err != nil {
			t.Fatal(err)
		}
	}
	for c.head < 2*big {
		if !r.sched.Step() {
			t.Fatal("queue stopped draining")
		}
	}
	if len(c.buf)+4+big <= sendQueueCap {
		t.Fatalf("len(buf)=%d: the dead prefix does not push the next frame past the cap", len(c.buf))
	}
	if err := send(big); err != nil {
		t.Fatalf("frame refused with %d live bytes queued: %v", tr.QueuedBytes(2), err)
	}
	for {
		live := tr.QueuedBytes(2)
		err := send(big)
		if err == nil {
			if live+4+big > sendQueueCap {
				t.Fatalf("frame accepted over the cap: %d live bytes", live)
			}
			continue
		}
		if err != ErrQueueFull || live+4+big <= sendQueueCap {
			t.Fatalf("Send with %d live bytes: %v", live, err)
		}
		break
	}
	r.sched.RunFor(5 * time.Minute)
	if delivered != sentFrames {
		t.Fatalf("delivered %d/%d frames after the cap was hit", delivered, sentFrames)
	}
}

// TestSendQueueGrowthBytes: a connection whose queue ramps to about 16 KB
// of live bytes — a 1000-byte frame a millisecond, faster than slow start
// opens the window, acks consuming the front of the queue while it grows —
// pays at most four times that peak in send-queue growth, counted with
// MemStats.TotalAlloc around its Sends. Doubling to twice the live bytes
// costs 3.2 times the peak here; stepping a quarter at a time and carrying
// the acked prefix along cost 8.7 times, and doubling but reclaiming the
// prefix only once half the array was dead cost 5.6.
func TestSendQueueGrowthBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	r := newRig(t, simnet.Config{}, 10_000_000, 1<<20)
	defer r.sched.Close()
	tr := r.a.AddTCP("t")
	r.b.AddTCP("t")
	delivered := 0
	r.b.SetRecv(func(_ string, _ overlay.Address, f []byte) { delivered++ })
	c := r.a.transports[0].(*reliable).conn(2)
	frame := testFrame(0, 1000)

	var grown uint64
	peak, sent := 0, 0
	ramp := func(measure bool) {
		var before, after runtime.MemStats
		for i := 0; i < 300; i++ {
			if measure {
				runtime.ReadMemStats(&before)
			}
			if err := tr.Send(2, frame); err != nil {
				t.Fatal(err)
			}
			if measure {
				runtime.ReadMemStats(&after)
				grown += after.TotalAlloc - before.TotalAlloc
				peak = max(peak, tr.QueuedBytes(2))
			}
			sent++
			r.sched.RunFor(time.Millisecond)
		}
		r.sched.RunFor(time.Minute)
	}
	ramp(false) // warm: packet pool, event heaps, connection state
	if c.head != 0 || len(c.buf) != 0 {
		t.Fatalf("queue not drained after the warm ramp: head=%d len=%d", c.head, len(c.buf))
	}
	c.buf = nil // the measured ramp grows the array from nothing
	ramp(true)
	if delivered != sent {
		t.Fatalf("delivered %d/%d frames", delivered, sent)
	}
	t.Logf("peak %d live bytes, %d bytes of growth (%.2f x), final cap %d", peak, grown, float64(grown)/float64(peak), cap(c.buf))
	if peak < 12<<10 {
		t.Fatalf("the queue peaked at %d live bytes: the rig no longer ramps it", peak)
	}
	if grown > uint64(4*peak) {
		t.Fatalf("%d bytes of send-queue growth for a peak of %d live bytes, budget 4x", grown, peak)
	}
}

// TestTCPFrameAllocs is the transport-level allocation budget of an in-order
// frame: nothing. The datagrams are built in the mux's scratch and copied
// into pooled packet records, frames are lent from the datagram, the send
// queue is reused, and the connection re-arms its one retransmit timer. The
// budget was 3 allocations and 1.25 KB with a fresh data and ack datagram per
// frame, then 1 allocation and 64 B with a fresh timer per arm.
func TestTCPFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are exact only without the race detector")
	}
	r := newRig(t, simnet.Config{}, 10_000_000, 1<<20)
	defer r.sched.Close()
	tr := r.a.AddTCP("t")
	r.b.AddTCP("t")
	got := 0
	r.b.SetRecv(func(_ string, _ overlay.Address, f []byte) { got += len(f) })
	frame := testFrame(0, 1000)
	const frames = 500
	streams := 0
	stream := func() {
		streams++
		for i := 0; i < frames; i++ {
			if err := tr.Send(2, frame); err != nil {
				t.Fatal(err)
			}
			r.sched.RunFor(20 * time.Millisecond) // past one RTT: delivered and acked
		}
	}
	stream() // warm: connection state, send queue array, packet pool, event heaps
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stream()
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / frames
	allocs := testing.AllocsPerRun(3, stream) / frames
	t.Logf("%.3f allocs and %.0f bytes per 1000-byte frame", allocs, perFrame)
	if got != streams*frames*len(frame) {
		t.Fatalf("delivered %d bytes of %d", got, streams*frames*len(frame))
	}
	if allocs > 0 {
		t.Fatalf("%.3f allocs per in-order frame, want none", allocs)
	}
	if perFrame > 0 {
		t.Fatalf("%.0f bytes allocated per in-order 1000-byte frame, want none", perFrame)
	}
}

// TestReliableInOrderConnAllocs: a connection builds its out-of-order map on
// the first segment that arrives ahead of the stream. One that only ever sees
// in-order data never holds the map, and a receive-side reset drops the map
// instead of making an empty one.
func TestReliableInOrderConnAllocs(t *testing.T) {
	r := newRig(t, simnet.Config{}, 10_000_000, 1<<20)
	defer r.sched.Close()
	tr := r.a.AddTCP("t")
	r.b.AddTCP("t")
	got := 0
	r.b.SetRecv(func(_ string, _ overlay.Address, f []byte) { got += len(f) })
	frame := testFrame(0, 3000) // three segments a frame
	const frames = 100
	for i := 0; i < frames; i++ {
		if err := tr.Send(2, frame); err != nil {
			t.Fatal(err)
		}
		r.sched.RunFor(20 * time.Millisecond)
	}
	if got != frames*len(frame) {
		t.Fatalf("delivered %d bytes of %d", got, frames*len(frame))
	}
	rel := r.b.transports[0].(*reliable)
	c := rel.conns[1]
	if c.ooo != nil {
		t.Fatal("a connection that saw only in-order data built an out-of-order map")
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(10, c.resetRecv); allocs != 0 {
			t.Fatalf("resetRecv allocates %v times", allocs)
		}
	}

	// A segment ahead of the stream builds the map; a reset drops it again.
	body := binary.BigEndian.AppendUint64(nil, c.peerBoot)
	body = binary.BigEndian.AppendUint32(body, c.peerGen)
	body = binary.BigEndian.AppendUint64(body, c.rcvNxt+1000)
	rel.handleData(1, append(body, "ahead"...))
	if len(c.ooo) != 1 {
		t.Fatalf("a segment ahead of the stream left %d held segments, want 1", len(c.ooo))
	}
	c.resetRecv()
	if c.ooo != nil || c.oooBytes != 0 {
		t.Fatalf("resetRecv kept the out-of-order map (%d segments, %d bytes)", len(c.ooo), c.oooBytes)
	}
}

// TestUDPFragmentsOutliveTheirDatagrams: over a slow pipe a fragmented
// frame's pieces arrive milliseconds apart, while the sender keeps sending, so
// the packet record that carried one fragment is carrying another datagram
// before its frame completes. It catches reassembly that keeps fragments as
// views of their lent datagrams instead of copying them.
func TestUDPFragmentsOutliveTheirDatagrams(t *testing.T) {
	r := newRig(t, simnet.Config{}, 2_000_000, 1<<20)
	defer r.sched.Close()
	tr := r.a.AddUDP("u")
	r.b.AddUDP("u")
	const frames, size = 30, 3*1500 + 100
	delivered := 0
	r.b.SetRecv(func(_ string, _ overlay.Address, f []byte) {
		if !bytes.Equal(f, testFrame(delivered, size)) {
			t.Fatalf("fragmented frame %d arrived corrupt", delivered)
		}
		delivered++
	})
	for i := 0; i < frames; i++ {
		if err := tr.Send(2, testFrame(i, size)); err != nil {
			t.Fatal(err)
		}
		r.sched.RunFor(5 * time.Millisecond) // the access pipe keeps up; the slow core pipe queues
	}
	r.sched.RunFor(time.Second)
	if delivered != frames {
		t.Fatalf("delivered %d/%d frames", delivered, frames)
	}
}

// TestUDPEmptyFragmentDuplicate: a fragment may be empty, so "have it" must
// not be judged by the stored chunk. An empty fragment repeated used to be
// counted each time and complete a frame that still missed a fragment.
func TestUDPEmptyFragmentDuplicate(t *testing.T) {
	r := newRig(t, simnet.Config{}, 1_000_000, 10*1500)
	defer r.sched.Close()
	u := r.b.AddUDP("u")
	var kept [][]byte
	var caps []int
	r.b.SetRecv(func(_ string, _ overlay.Address, f []byte) {
		kept, caps = append(kept, bytes.Clone(f)), append(caps, cap(f))
	})
	frag := func(i int, chunk string) []byte {
		d := []byte{0, kindUDPFrag}
		d = binary.BigEndian.AppendUint32(d, 77)
		d = binary.BigEndian.AppendUint16(d, uint16(i))
		d = binary.BigEndian.AppendUint16(d, 3)
		return append(d, chunk...)
	}
	r.b.onDatagram(1, frag(1, "xy"))
	r.b.onDatagram(1, frag(0, ""))
	r.b.onDatagram(1, frag(0, "")) // the duplicate
	if len(kept) != 0 {
		t.Fatalf("frame %q delivered with fragment 2 missing", kept[0])
	}
	r.b.onDatagram(1, frag(1, "xy")) // a non-empty duplicate is ignored too
	r.b.onDatagram(1, frag(2, "z"))
	if len(kept) != 1 || string(kept[0]) != "xyz" {
		t.Fatalf("reassembled %q, want one frame \"xyz\"", kept)
	}
	if caps[0] != 3 {
		t.Fatalf("frame assembled into %d bytes of storage, want exactly 3", caps[0])
	}
	if s := u.Stats(); s.FramesRecv != 1 || s.BytesRecv != 3 {
		t.Fatalf("stats = %+v", s)
	}
}
