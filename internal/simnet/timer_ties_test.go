package simnet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/repo"
	"macedon/internal/topology"
)

// timerPacketTies is what every engine must print for the schedule below:
// node timers (evFunc) and packet records (evArrive, evDeliver) due at one
// nanosecond, which a shard keeps in two heaps and must still execute in
// (at, actor, seq) order. It was produced by the engine that kept one heap
// per shard (commit d5e297b) with this same test body.
//
//   - 2 ms and 3 ms: one handler of client 1 sends to itself and arms a
//     zero-delay timer, in both orders. The loopback delivery and the timer
//     carry the same vertex actor, so the sequence number alone decides.
//   - 4 ms: a global event, a timer of client 1 armed at 0, a loopback the
//     global event sends, and a datagram from client 2 all fall on the same
//     instant at client 1: global actor, then the vertex actor by sequence,
//     then the downlink's actor. The arrival's handler then sends to itself
//     and arms a timer — both keyed below the arrival that is executing.
//   - 9 ms: a timer of client 3 (behind a second router) meets a datagram
//     from client 1 at the same instant.
const timerPacketTies = `1 handler A @2000000
1 loop a1 @2000000
1 timer a2 @2000000
1 handler B @3000000
1 timer b1 @3000000
1 loop b2 @3000000
1 global @4000000
1 timer armed at 0 @4000000
1 loop from global @4000000
1 recv remote from 0.0.0.2 @4000000
1 loop from arrival @4000000
1 timer from arrival @4000000
2 recv late from 0.0.0.1 @8000000
3 timer @9000000
3 recv reply from 0.0.0.1 @9000000
`

func timerPacketTieRun(t *testing.T, shards int) string {
	t.Helper()
	const ms = time.Millisecond
	access := topology.AccessLink{Latency: ms, Bandwidth: 1_000_000, QueueBytes: 4000}
	g := topology.NewGraph()
	r0, r1 := g.AddRouter(), g.AddRouter()
	g.AddLink(r0, r1, ms, 1_000_000, 4000)
	g.AttachClient(1, r0, access)
	g.AttachClient(2, r0, access)
	g.AttachClient(3, r1, access)
	s := NewSharded(2004, shards)
	defer s.Close()
	n := New(s, g, Config{})

	addrs := []overlay.Address{1, 2, 3}
	rows := make(map[overlay.Address]*[]string)
	subs := make(map[overlay.Address]*NodeSubstrate)
	for _, a := range addrs {
		sub, err := n.NodeNet(a)
		if err != nil {
			t.Fatal(err)
		}
		subs[a], rows[a] = sub, new([]string)
	}
	// Each client writes its own rows; the global event writes client 1's
	// while every shard is parked at its instant.
	logf := func(a overlay.Address, format string, args ...any) {
		*rows[a] = append(*rows[a], fmt.Sprintf("%d %s @%d", a, fmt.Sprintf(format, args...), subs[a].Elapsed().Nanoseconds()))
	}
	send := func(from, to overlay.Address, what string) {
		payload := make([]byte, 125-headerOverhead) // 1 ms on every pipe
		copy(payload, what)
		if err := n.eps[from].Send(to, payload); err != nil {
			panic(err)
		}
	}
	text := func(p []byte) string { return strings.TrimRight(string(p), "\x00") }

	n.eps[1].SetRecv(func(src overlay.Address, p []byte) {
		if src == 1 {
			logf(1, "loop %s", text(p))
			return
		}
		logf(1, "recv %s from %v", text(p), src)
		send(1, 1, "from arrival")
		subs[1].After(0, func() { logf(1, "timer from arrival") })
	})
	n.eps[2].SetRecv(func(src overlay.Address, p []byte) { logf(2, "recv %s from %v", text(p), src) })
	n.eps[3].SetRecv(func(src overlay.Address, p []byte) { logf(3, "recv %s from %v", text(p), src) })

	send(2, 1, "remote") // uplink 1+1 ms, downlink 1+1 ms: at client 1 at 4 ms
	subs[1].After(4*ms, func() { logf(1, "timer armed at 0") })
	s.After(4*ms, func() {
		logf(1, "global")
		send(1, 1, "from global")
	})
	subs[1].After(2*ms, func() {
		logf(1, "handler A")
		send(1, 1, "a1")
		subs[1].After(0, func() { logf(1, "timer a2") })
	})
	subs[1].After(3*ms, func() {
		logf(1, "handler B")
		subs[1].After(0, func() { logf(1, "timer b1") })
		send(1, 1, "b2")
	})
	// Three pipes of 1+1 ms each from client 1 to client 3.
	subs[1].After(3*ms, func() { send(1, 3, "reply") })
	subs[3].After(9*ms, func() { logf(3, "timer") })
	subs[1].After(4*ms, func() { send(1, 2, "late") })

	s.RunFor(20 * ms)
	var b strings.Builder
	for _, a := range addrs {
		for _, row := range *rows[a] {
			b.WriteString(row)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestTimerPacketTies(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			if got := timerPacketTieRun(t, shards); got != timerPacketTies {
				t.Fatalf("differs from the one-heap engine's trace at %s\n%s",
					repo.FirstDiff(timerPacketTies, got), got)
			}
		})
	}
}
