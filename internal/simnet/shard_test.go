package simnet

import (
	"fmt"
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/topology"
)

// stormRun drives a deterministic datagram storm over an INET topology and
// returns the final counters. Everything (workload, loss, queuing) is a
// pure function of the seed, so any two runs — at any shard counts — must
// agree exactly.
func stormRun(t *testing.T, shards int) (Stats, time.Duration) {
	t.Helper()
	g, err := topology.INET(topology.DefaultINET(60, 3))
	if err != nil {
		t.Fatal(err)
	}
	addrs := topology.AttachClients(g, 12, 1, topology.DefaultAccess, 3)
	s := NewSharded(11, shards)
	n := New(s, g, Config{LossRate: 0.01})
	for _, a := range addrs {
		ep, _ := n.Endpoint(a)
		ep.SetRecv(func(overlay.Address, []byte) {})
	}
	rng := s.Rand()
	for i := 0; i < 400; i++ {
		src, _ := n.Endpoint(addrs[rng.Intn(len(addrs))])
		dst := addrs[rng.Intn(len(addrs))]
		_ = src.Send(dst, make([]byte, 100+rng.Intn(1000)))
		s.RunFor(time.Millisecond)
	}
	s.RunFor(500 * time.Millisecond)
	s.Close()
	return n.Stats(), s.Elapsed()
}

// TestShardInvarianceRawTraffic checks the tentpole guarantee at the packet
// level: per-hop serialization, queuing, and the loss process produce the
// same counters whether the loop runs on 1, 2, 3, or 4 shards.
func TestShardInvarianceRawTraffic(t *testing.T) {
	base, elapsed := stormRun(t, 1)
	if base.Sent == 0 || base.Delivered == 0 || base.RandomLoss == 0 {
		t.Fatalf("degenerate baseline: %+v", base)
	}
	for _, shards := range []int{2, 3, 4} {
		got, e := stormRun(t, shards)
		if got != base || e != elapsed {
			t.Fatalf("shards=%d diverged:\n  1: %+v elapsed=%v\n  %d: %+v elapsed=%v",
				shards, base, elapsed, shards, got, e)
		}
	}
}

// TestShardInvarianceNodeTimers checks shard-bound clocks: each endpoint's
// timers fire at identical virtual instants in identical per-endpoint order
// for every shard count. (Only per-endpoint order is observable — events on
// different shards at one instant are concurrent by design and may not
// touch shared state, which is why each endpoint records into its own row.)
func TestShardInvarianceNodeTimers(t *testing.T) {
	const clients = 6
	run := func(shards int) [][]string {
		g := topology.NewGraph()
		r := g.AddRouter()
		r2 := g.AddRouter()
		g.AddLink(r, r2, 2*time.Millisecond, 1_000_000, 10*1500)
		for i := 1; i <= clients; i++ {
			at := r
			if i%2 == 0 {
				at = r2
			}
			g.AttachClient(overlay.Address(i), at, topology.DefaultAccess)
		}
		s := NewSharded(5, shards)
		n := New(s, g, Config{})
		rows := make([][]string, clients)
		for i := 1; i <= clients; i++ {
			ns, err := n.NodeNet(overlay.Address(i))
			if err != nil {
				t.Fatal(err)
			}
			row := &rows[i-1]
			// Same-instant ties between the two timers below must keep
			// their scheduling order on every shard count.
			for k := 0; k < 3; k++ {
				k := k
				ns.After(time.Duration(k+1)*5*time.Millisecond, func() {
					*row = append(*row, fmt.Sprintf("a%d@%v", k, ns.Elapsed()))
				})
				ns.After(time.Duration(k+1)*5*time.Millisecond, func() {
					*row = append(*row, fmt.Sprintf("b%d@%v", k, ns.Elapsed()))
				})
			}
		}
		s.RunFor(50 * time.Millisecond)
		s.Close()
		return rows
	}
	base := run(1)
	for i, row := range base {
		if len(row) != 6 {
			t.Fatalf("endpoint %d fired %d times, want 6: %v", i+1, len(row), row)
		}
	}
	for _, shards := range []int{2, 4} {
		got := run(shards)
		for i := range base {
			if fmt.Sprint(got[i]) != fmt.Sprint(base[i]) {
				t.Fatalf("shards=%d endpoint %d: %v, want %v", shards, i+1, got[i], base[i])
			}
		}
	}
}

// TestOracleTreeBudget checks the per-oracle tree bound: more destinations
// than the budget must not grow the cache past it, and answers must stay
// correct after eviction.
func TestOracleTreeBudget(t *testing.T) {
	g, err := topology.INET(topology.DefaultINET(40, 4))
	if err != nil {
		t.Fatal(err)
	}
	addrs := topology.AttachClients(g, 10, 1, topology.DefaultAccess, 4)
	bounded := topology.NewRoutes(g)
	bounded.SetTreeBudget(3)
	reference := topology.NewRoutes(g)
	for round := 0; round < 2; round++ {
		for _, a := range addrs {
			for _, b := range addrs {
				if a == b {
					continue
				}
				got, err1 := bounded.ClientLatency(a, b)
				want, err2 := reference.ClientLatency(a, b)
				if err1 != nil || err2 != nil {
					t.Fatalf("latency errors: %v / %v", err1, err2)
				}
				if got != want {
					t.Fatalf("bounded oracle disagrees for %v->%v: %v vs %v", a, b, got, want)
				}
			}
		}
		if got := bounded.CachedTrees(); got > 3 {
			t.Fatalf("tree cache grew to %d, budget is 3", got)
		}
	}
}

// crossTraffic builds two routers joined by a 1 ms pipe with clients on
// both over cheaper 0.5 ms access pipes, so placement puts each router with
// its clients and the routers on different shards: every datagram crosses
// shards at least once. Every client sends to the client opposite every
// period until stop, next to `idle` no-op timers per client on the same
// period that only add density. Deliveries are logged per receiving
// endpoint, in arrival order.
func crossTraffic(t *testing.T, period, stop time.Duration, idle int) (*Scheduler, *Network, [][]string) {
	t.Helper()
	const perSide = 8
	g := topology.NewGraph()
	r0, r1 := g.AddRouter(), g.AddRouter()
	g.AddLink(r0, r1, time.Millisecond, 100_000_000, 1<<20)
	access := topology.DefaultAccess
	access.Latency = 500 * time.Microsecond
	for i := 0; i < 2*perSide; i++ {
		at := r0
		if i >= perSide {
			at = r1
		}
		g.AttachClient(overlay.Address(i+1), at, access)
	}
	s := NewSharded(9, 2)
	n := New(s, g, Config{})
	if n.vertexShard[r0] == n.vertexShard[r1] {
		t.Fatalf("both routers on shard %d; no datagram crosses shards", n.vertexShard[r0])
	}
	if s.Lookahead() != time.Millisecond {
		t.Fatalf("lookahead = %v, want the 1ms cross link", s.Lookahead())
	}
	rows := make([][]string, 2*perSide)
	for i := 0; i < 2*perSide; i++ {
		addr := overlay.Address(i + 1)
		peer := overlay.Address((i+perSide)%(2*perSide) + 1)
		sub, err := n.NodeNet(addr)
		if err != nil {
			t.Fatal(err)
		}
		ep := n.eps[addr]
		ep.SetRecv(func(src overlay.Address, p []byte) {
			rows[i] = append(rows[i], fmt.Sprintf("%v#%d@%v", src, p[0], sub.Elapsed()))
		})
		every := func(fn func()) {
			var tick func()
			tick = func() {
				if sub.Elapsed() >= stop {
					return
				}
				fn()
				sub.After(period, tick)
			}
			sub.After(time.Duration(i)*time.Microsecond, tick)
		}
		seq := byte(0)
		every(func() {
			seq++
			_ = ep.Send(peer, []byte{seq})
		})
		for k := 0; k < idle; k++ {
			every(func() {})
		}
	}
	return s, n, rows
}

// denseIdle timers per client at a 50 µs period put some 2,000 events in
// every 1 ms window: above the fan-out gate.
const denseIdle = 4

// TestOutboxCrossShard runs dense cross-shard traffic through fanned-out
// windows — every arrival event is parked in an outbox and merged at the
// join — and checks each endpoint saw exactly the deliveries, in exactly the
// order, that stepping the same two-shard schedule one event at a time on
// one goroutine produces.
func TestOutboxCrossShard(t *testing.T) {
	const period, stop = 50 * time.Microsecond, 10 * time.Millisecond
	ref, refNet, want := crossTraffic(t, period, stop, denseIdle)
	ref.RunUntilIdle()
	if ref.windows != 0 {
		t.Fatalf("stepping opened %d windows", ref.windows)
	}

	s, n, got := crossTraffic(t, period, stop, denseIdle)
	s.RunFor(stop + time.Second)
	s.Close()
	if s.dispatched == 0 {
		t.Fatalf("no window of %d fanned out; the outboxes were never used", s.windows)
	}
	if s.Pending() != 0 || s.Executed() != ref.Executed() {
		t.Fatalf("windows left %d pending after %d events; stepping ran %d", s.Pending(), s.Executed(), ref.Executed())
	}
	if n.Stats() != refNet.Stats() || n.Stats().Delivered == 0 {
		t.Fatalf("stats diverge:\n  step:    %+v\n  windows: %+v", refNet.Stats(), n.Stats())
	}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("endpoint %d: windows delivered %v\nstepping delivered %v", i+1, got[i], want[i])
		}
	}
}

// TestSparseWindowsRunInline: a schedule with a handful of events per
// lookahead window never hands a window to a worker.
func TestSparseWindowsRunInline(t *testing.T) {
	s, n, _ := crossTraffic(t, 3*time.Millisecond, 300*time.Millisecond, 0)
	s.RunFor(400 * time.Millisecond)
	s.Close()
	if n.Stats().Delivered == 0 || s.windows < 100 {
		t.Fatalf("degenerate run: %d windows, %+v", s.windows, n.Stats())
	}
	if s.dispatched != 0 {
		t.Fatalf("%d of %d sparse windows fanned out, want none", s.dispatched, s.windows)
	}
	// Nothing was handed over, so no worker was ever started: the run had
	// no goroutine but the caller's.
	for _, sh := range s.shards {
		if sh.run != nil {
			t.Fatalf("shard %d has a worker though no window fanned out", sh.id)
		}
	}
}

// TestDenseWindowsDispatch: windows that each hold thousands of events on
// both shards do fan out — all but the odd one (the first has no density to
// go on, and the gate lags one window behind a change in density).
func TestDenseWindowsDispatch(t *testing.T) {
	s, _, _ := crossTraffic(t, 50*time.Microsecond, 20*time.Millisecond, denseIdle)
	s.RunFor(20 * time.Millisecond)
	s.Close()
	if s.windows < 15 {
		t.Fatalf("only %d windows", s.windows)
	}
	if s.dispatched*10 < s.windows*8 {
		t.Fatalf("%d of %d dense windows fanned out, want at least eight in ten", s.dispatched, s.windows)
	}
}
