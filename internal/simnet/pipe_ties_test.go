package simnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/repo"
	"macedon/internal/topology"
)

// The pipe-tie workload: every pipe runs at 1 Mbit/s, every datagram is
// 125, 250 or 500 bytes on the wire (1, 2 or 4 ms of serialization), every
// latency is a whole number of milliseconds and every sender ticks on the
// millisecond, so queue releases land on the same nanosecond as enqueues on
// the same pipe all the time — and the queues hold only a few packets, so
// which of the two is ordered first decides a drop. Three kinds of tie occur:
//
//   - a client's tick (vertex actor, ordered BEFORE every link actor) sends
//     onto its uplink at the instant the uplink finishes a packet: the bytes
//     still count;
//   - an arrival from a higher-numbered link (access uplinks 2–9 feeding
//     core link 0/1, ordered AFTER it) enters the core pipe at the instant
//     it finishes a packet: the bytes are gone;
//   - an arrival from a lower-numbered link (core 0/1 feeding downlinks and
//     core link 10/11) ties the other way round.
//
// testdata/pipe_ties.golden was generated by the engine that executed one
// heap event per release (commit 4b7b22c), with this same test body.
const (
	tieTick   = time.Millisecond
	tieChunk  = 25 * time.Millisecond
	tieChunks = 12
	tieForkAt = 4 // chunks run before the fork case snapshots
)

var tiePayloads = [...]int{125 - headerOverhead, 250 - headerOverhead, 500 - headerOverhead}

func tieGraph() (*topology.Graph, []overlay.Address) {
	const bw = 1_000_000
	access := topology.AccessLink{Latency: time.Millisecond, Bandwidth: bw, QueueBytes: 500}
	g := topology.NewGraph()
	r0, r1 := g.AddRouter(), g.AddRouter()
	g.AddLink(r0, r1, 2*time.Millisecond, bw, 750) // links 0, 1: below every access link
	g.AttachClient(1, r0, access)
	g.AttachClient(2, r0, access)
	g.AttachClient(3, r1, access)
	g.AttachClient(4, r1, access)
	r2 := g.AddRouter()
	g.AddLink(r1, r2, 3*time.Millisecond, bw, 750) // links 10, 11: above them
	g.AttachClient(5, r2, access)
	g.AttachClient(6, r2, access)
	return g, g.Clients()
}

// tieClient is one sender/receiver. Its whole state is plain values, so the
// fork case checkpoints it by copying the struct.
type tieClient struct {
	rng  uint64
	sent uint32
	rows []string // deliveries in arrival order
}

func (c *tieClient) draw() uint64 {
	c.rng = splitmix64(c.rng)
	return c.rng
}

type tieRun struct {
	sched   *Scheduler
	net     *Network
	addrs   []overlay.Address
	clients []*tieClient
	eps     []*endpoint
}

// send emits one datagram from client i, chosen by its private sequence.
func (r *tieRun) send(i int) {
	c := r.clients[i]
	x := c.draw()
	dst := r.addrs[(i+1+int(x%uint64(len(r.addrs)-1)))%len(r.addrs)]
	payload := make([]byte, tiePayloads[(x>>16)%uint64(len(tiePayloads))])
	c.sent++
	binary.BigEndian.PutUint32(payload, c.sent)
	if err := r.eps[i].Send(dst, payload); err != nil {
		panic(err)
	}
}

func newTieRun(t *testing.T, shards int) *tieRun {
	t.Helper()
	g, addrs := tieGraph()
	r := &tieRun{sched: NewSharded(2004, shards), addrs: addrs}
	r.net = New(r.sched, g, Config{})
	stop := tieChunk * tieChunks
	for i, a := range addrs {
		c := &tieClient{rng: uint64(a) * 0x9E3779B97F4A7C15}
		r.clients = append(r.clients, c)
		ep := r.net.eps[a]
		r.eps = append(r.eps, ep)
		sub, err := r.net.NodeNet(a)
		if err != nil {
			t.Fatal(err)
		}
		ep.SetRecv(func(src overlay.Address, payload []byte) {
			c.rows = append(c.rows, fmt.Sprintf("%v <- %v #%d %dB @%d",
				a, src, binary.BigEndian.Uint32(payload), len(payload), sub.Elapsed().Nanoseconds()))
		})
		var tick func()
		tick = func() {
			if sub.Elapsed() >= stop {
				return
			}
			for k := c.draw() % 4; k > 0; k-- { // bursts of 0–3 datagrams
				r.send(i)
			}
			sub.After(tieTick, tick)
		}
		sub.After(0, tick)
	}
	return r
}

// chunk advances one RunFor window and then sends from the coordinator at
// the boundary instant: an enqueue outside any event, which must see every
// release due at or before the deadline as already applied.
func (r *tieRun) chunk(k int) {
	r.sched.RunFor(tieChunk)
	r.send(k % len(r.addrs))
}

func (r *tieRun) finish() string {
	r.sched.RunFor(100 * time.Millisecond)
	r.sched.Close()
	var b strings.Builder
	fmt.Fprintf(&b, "stats %+v\n", r.net.Stats())
	for _, l := range r.net.graph.Links() {
		fmt.Fprintf(&b, "link %d %d->%d %+v\n", l.ID, l.From, l.To, r.net.LinkCounters(l.ID))
	}
	for _, c := range r.clients {
		for _, row := range c.rows {
			b.WriteString(row)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func tieCold(t *testing.T, shards int) string {
	r := newTieRun(t, shards)
	for k := 0; k < tieChunks; k++ {
		r.chunk(k)
	}
	return r.finish()
}

// tieForked snapshots while the pipes hold queued bytes, saturates every
// uplink in a branch, rewinds, and then runs the schedule tieCold runs.
func tieForked(t *testing.T, shards int) string {
	r := newTieRun(t, shards)
	for k := 0; k < tieForkAt; k++ {
		r.chunk(k)
	}
	queued := 0
	for i := range r.net.links {
		queued += int(r.net.links[i].queuedBytes)
	}
	if queued == 0 {
		t.Fatal("no pipe holds queued bytes at the snapshot; the fork case checks nothing")
	}
	cpS, cpN := r.sched.Snapshot(), r.net.Snapshot()
	saved := make([]tieClient, len(r.clients))
	for i, c := range r.clients {
		saved[i] = *c
	}
	for round := 0; round < 2; round++ {
		for i := range r.clients {
			for k := 0; k < 8; k++ {
				r.send(i)
			}
		}
		r.sched.RunFor(tieChunk)
	}
	r.sched.Restore(cpS)
	r.net.Restore(cpN)
	for i, c := range r.clients {
		*c = saved[i]
	}
	for k := tieForkAt; k < tieChunks; k++ {
		r.chunk(k)
	}
	return r.finish()
}

func TestPipeTiesGolden(t *testing.T) {
	path := filepath.Join("testdata", "pipe_ties.golden")
	runs := []struct {
		name string
		run  func(*testing.T, int) string
	}{{"cold", tieCold}, {"forked", tieForked}}
	for _, shards := range []int{1, 2, 4} {
		for _, r := range runs {
			t.Run(fmt.Sprintf("%s/shards=%d/latency", r.name, shards), func(t *testing.T) {
				repo.RecordGolden(t, path, r.run(t, shards))
			})
		}
	}
	if want, _ := os.ReadFile(path); !bytes.Contains(want, []byte("QueueDrops:")) || bytes.Contains(want, []byte("QueueDrops:0 ")) {
		t.Fatal("golden records no queue drops; the ties decide nothing")
	}
}

// TestPipeReleaseOrder pins, one tie at a time, which side of a queue
// release an enqueue at the same nanosecond falls on. Two clients hang off
// one router over 1 Mbit/s, 1 ms access pipes that hold exactly one 125-byte
// packet; client 1's uplink is link 0 and its downlink link 1, so the
// uplink's release is ordered after client 1's own timers and before
// arrivals on its downlink. The expectations are what the one-event-per-
// release engine (commit 4b7b22c) produces with the same body.
func TestPipeReleaseOrder(t *testing.T) {
	const tx = time.Millisecond
	cases := []struct {
		name string
		// second sends client 1's second packet, given the run.
		second  func(send func(), sub *NodeSubstrate, ep2 *endpoint, s *Scheduler)
		dropped bool
	}{
		// A timer of client 1 at the release instant runs before it.
		{"timer at the instant", func(send func(), sub *NodeSubstrate, _ *endpoint, s *Scheduler) {
			sub.After(3*tx, send)
			sub.After(4*tx, send)
			s.RunFor(10 * tx)
		}, true},
		// A packet from client 2, sent at 0, reaches client 1 at 4 ms; an
		// arrival on the downlink runs after the uplink's release.
		{"arrival at the instant", func(send func(), sub *NodeSubstrate, ep2 *endpoint, s *Scheduler) {
			ep2.net.eps[1].recv = func(overlay.Address, []byte) { send() }
			_ = ep2.Send(1, make([]byte, 125-headerOverhead))
			sub.After(3*tx, send)
			s.RunFor(10 * tx)
		}, false},
		// The same arrival defers the send to a zero-delay timer: an event
		// keyed before the release, but scheduled after the release ran.
		{"zero-delay timer from the arrival", func(send func(), sub *NodeSubstrate, ep2 *endpoint, s *Scheduler) {
			ep2.net.eps[1].recv = func(overlay.Address, []byte) { sub.After(0, send) }
			_ = ep2.Send(1, make([]byte, 125-headerOverhead))
			sub.After(3*tx, send)
			s.RunFor(10 * tx)
		}, false},
		// A global event half a millisecond after the release sends from
		// client 1, whose shard has run nothing since the first send.
		{"global event after the release", func(send func(), sub *NodeSubstrate, _ *endpoint, s *Scheduler) {
			sub.After(3*tx, send)
			s.After(4*tx+tx/2, send)
			s.RunFor(10 * tx)
		}, false},
		// The coordinator sends between two RunFor calls, the first of
		// which ended exactly at the release instant.
		{"coordinator at a RunFor boundary", func(send func(), _ *NodeSubstrate, _ *endpoint, s *Scheduler) {
			send()
			s.RunFor(tx)
			send()
			s.RunFor(10 * tx)
		}, false},
		// ... and one nanosecond short of it.
		{"coordinator before the release", func(send func(), _ *NodeSubstrate, _ *endpoint, s *Scheduler) {
			send()
			s.RunFor(tx - 1)
			send()
			s.RunFor(10 * tx)
		}, true},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				access := topology.AccessLink{Latency: tx, Bandwidth: 1_000_000, QueueBytes: 125}
				g := topology.NewGraph()
				r := g.AddRouter()
				g.AttachClient(1, r, access)
				g.AttachClient(2, r, access)
				s := NewSharded(1, shards)
				defer s.Close()
				n := New(s, g, Config{})
				sub, err := n.NodeNet(1)
				if err != nil {
					t.Fatal(err)
				}
				n.eps[2].SetRecv(func(overlay.Address, []byte) {})
				send := func() { _ = n.eps[1].Send(2, make([]byte, 125-headerOverhead)) }
				tc.second(send, sub, n.eps[2], s)
				up, _, _ := g.AccessLinks(1)
				got := n.LinkCounters(up)
				if got.Packets+got.Drops != 2 {
					t.Fatalf("uplink saw %+v, want two packets offered", got)
				}
				if (got.Drops == 1) != tc.dropped {
					t.Fatalf("second packet dropped = %v, want %v (%+v)", got.Drops == 1, tc.dropped, got)
				}
			})
		}
	}
}
