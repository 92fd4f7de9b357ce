package simnet

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/topology"
)

// poolNet builds a small emulated network for pool tests.
func poolNet(t *testing.T, shards int, cfg Config) (*Scheduler, *Network, []overlay.Address) {
	t.Helper()
	g, err := topology.INET(topology.DefaultINET(40, 5))
	if err != nil {
		t.Fatal(err)
	}
	addrs := topology.AttachClients(g, 8, 1, topology.DefaultAccess, 5)
	s := NewSharded(7, shards)
	n := New(s, g, cfg)
	return s, n, addrs
}

// TestPoolRecycleClearsRecord checks the free-list contract directly: a
// released packet record keeps only its byte storage, at length 0, so a
// recycled record can never leak a prior payload or path into its next
// flight, and the next flight copies into storage it already has. (Pointer
// identity is checked over several rounds because sync.Pool deliberately
// drops a fraction of Puts under the race detector.)
func TestPoolRecycleClearsRecord(t *testing.T) {
	s, n, addrs := poolNet(t, 1, Config{})
	defer s.Close()
	recycled := 0
	for i := 0; i < 64; i++ {
		secret := []byte("secret")
		pkt := n.allocPacket(0, secret)
		if string(pkt.payload) != "secret" || cap(pkt.payload) != MTU {
			t.Fatalf("record holds %q in %d bytes of storage, want a copy in MTU bytes", pkt.payload, cap(pkt.payload))
		}
		secret[0] = 'X' // the record holds a copy: the caller may reuse its buffer
		if string(pkt.payload) != "secret" {
			t.Fatalf("record aliases the sender's buffer: %q", pkt.payload)
		}
		storage := &pkt.payload[:1][0]
		pkt.src, pkt.dst, pkt.to = addrs[0], addrs[1], n.eps[addrs[1]]
		pkt.path = []topology.LinkID{1, 2, 3}
		n.releasePacket(0, pkt)
		var zero overlay.Address
		if len(pkt.payload) != 0 || cap(pkt.payload) != MTU || &pkt.payload[:1][0] != storage ||
			pkt.path != nil || pkt.src != zero || pkt.dst != zero || pkt.to != nil {
			t.Fatalf("released record kept state or lost its storage: %+v", pkt)
		}
		if next := n.allocPacket(0, []byte("ab")); next == pkt {
			recycled++
			if string(next.payload) != "ab" {
				t.Fatalf("recycled record carries %q, want \"ab\"", next.payload)
			}
		}
	}
	if recycled == 0 {
		t.Fatal("same-generation releases never recycled a record")
	}
}

// TestPoolSnapshotPinsGeneration checks checkpoint safety: a packet created
// before a snapshot may be referenced by the snapshot's copied event heaps,
// so releasing it must NOT return it to the pool — only records born after
// the latest snapshot recycle. A pinned record keeps its payload bytes: a
// restored branch delivers them again.
func TestPoolSnapshotPinsGeneration(t *testing.T) {
	s, n, _ := poolNet(t, 1, Config{})
	defer s.Close()
	old := n.allocPacket(0, []byte("pinned"))
	_ = n.Snapshot() // retires old's generation
	n.releasePacket(0, old)
	if string(old.payload) != "pinned" {
		t.Fatalf("releasing a pinned record rewrote its payload to %q", old.payload)
	}
	for i := 0; i < 64; i++ {
		if n.allocPacket(0, nil) == old {
			t.Fatalf("snapshot-pinned packet was recycled; a restored heap would replay corrupted state")
		}
	}
	recycled := 0
	for i := 0; i < 64; i++ {
		fresh := n.allocPacket(0, nil)
		n.releasePacket(0, fresh)
		if n.allocPacket(0, nil) == fresh {
			recycled++
		}
	}
	if recycled == 0 {
		t.Fatal("post-snapshot packets never recycle")
	}
}

// TestPoolPayloadIntegrity drives distinct tagged payloads through the
// pooled hot path (including drops, which release records early) and checks
// every delivery carries exactly the bytes its send put in. A pooling bug
// that recycled a record still referenced by a pending arrival — or failed
// to clear one — would corrupt or cross-wire payloads here.
func TestPoolPayloadIntegrity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s, n, addrs := poolNet(t, shards, Config{LossRate: 0.02})
		// Delivery callbacks run on the receiving node's shard; the shared
		// map needs a lock (sim determinism is unaffected — the lock guards
		// test accounting, not simulation state).
		var mu sync.Mutex
		got := make(map[uint64][]byte)
		for _, a := range addrs {
			ep, _ := n.Endpoint(a)
			ep.SetRecv(func(_ overlay.Address, payload []byte) {
				tag := binary.BigEndian.Uint64(payload)
				cp := append([]byte(nil), payload...)
				mu.Lock()
				got[tag] = cp
				mu.Unlock()
			})
		}
		rng := s.Rand()
		sent := make(map[uint64][]byte)
		for i := 0; i < 600; i++ {
			payload := make([]byte, 16+rng.Intn(400))
			binary.BigEndian.PutUint64(payload, uint64(i))
			rng.Read(payload[8:])
			sent[uint64(i)] = append([]byte(nil), payload...)
			src, _ := n.Endpoint(addrs[rng.Intn(len(addrs))])
			_ = src.Send(addrs[rng.Intn(len(addrs))], payload)
			clear(payload) // Send copied it: the sender may reuse its buffer at once
			s.RunFor(500 * time.Microsecond)
		}
		s.RunFor(time.Second)
		s.Close()
		if len(got) < 400 {
			t.Fatalf("shards=%d: degenerate run, only %d/600 delivered", shards, len(got))
		}
		for tag, payload := range got {
			want, ok := sent[tag]
			if !ok {
				t.Fatalf("shards=%d: delivery with unknown tag %d", shards, tag)
			}
			if string(payload) != string(want) {
				t.Fatalf("shards=%d: payload for op %d corrupted in flight", shards, tag)
			}
		}
	}
}

// TestPoolSnapshotRewindStats takes a checkpoint mid-storm — packet records
// in flight, pools warm — runs the tail twice, and requires identical
// counters and clocks both times. A record recycled while a snapshot heap
// still referenced it would make the replayed branch diverge.
func TestPoolSnapshotRewindStats(t *testing.T) {
	for _, shards := range []int{1, 3} {
		s, n, addrs := poolNet(t, shards, Config{LossRate: 0.01})
		for _, a := range addrs {
			ep, _ := n.Endpoint(a)
			ep.SetRecv(func(overlay.Address, []byte) {})
		}
		rng := s.Rand()
		send := func(count int) {
			for i := 0; i < count; i++ {
				src, _ := n.Endpoint(addrs[rng.Intn(len(addrs))])
				_ = src.Send(addrs[rng.Intn(len(addrs))], make([]byte, 64+rng.Intn(512)))
				s.RunFor(300 * time.Microsecond)
			}
		}
		send(200) // shared prefix, leaves packets mid-flight
		schedCp, netCp := s.Snapshot(), n.Snapshot()

		s.RunFor(400 * time.Millisecond)
		first, firstAt := n.Stats(), s.Elapsed()

		s.Restore(schedCp) // also rewinds the scheduler PRNG
		n.Restore(netCp)
		s.RunFor(400 * time.Millisecond)
		second, secondAt := n.Stats(), s.Elapsed()
		s.Close()

		if first != second || firstAt != secondAt {
			t.Fatalf("shards=%d: rewound branch diverged:\n  first:  %+v at %v\n  second: %+v at %v",
				shards, first, firstAt, second, secondAt)
		}
		if first.Delivered == 0 {
			t.Fatalf("shards=%d: degenerate run: %+v", shards, first)
		}
	}
}

// TestWarmHopDoesNotAllocate: once the route is cached, the heaps have grown
// and the pool holds a record, a datagram crosses a four-pipe path — send,
// four enqueues, four arrival events, delivery, release — without the network
// allocating anything.
func TestWarmHopDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops records at random under the race detector")
	}
	n, s, _ := diamondNet(t)
	defer s.Close()
	e1, _ := n.Endpoint(1)
	e2, _ := n.Endpoint(2)
	delivered := 0
	e2.SetRecv(func(overlay.Address, []byte) { delivered++ })
	payload := make([]byte, 64)
	if hops := len(n.path(n.eps[1], n.eps[2].vertex)); hops != 4 {
		t.Fatalf("path has %d pipes, want 4", hops)
	}
	flight := func() {
		if err := e1.Send(2, payload); err != nil {
			t.Fatal(err)
		}
		s.RunUntilIdle()
	}
	flight()
	if got := testing.AllocsPerRun(200, flight); got != 0 {
		t.Fatalf("a warm datagram costs the network %v allocations", got)
	}
	if delivered != 202 {
		t.Fatalf("%d of 202 datagrams delivered", delivered)
	}
}
