package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/simnet"
	"macedon/internal/substrate"
	"macedon/internal/topology"
	"macedon/internal/transport"
)

// Isolated layer drivers. Each one times calls into a layer's public API
// from outside, in batches, and asserts the work happened (sent ==
// delivered, decoded == encoded), so a broken layer cannot post a fast
// number. Inputs derive from the benchmark seed. The drivers do not depend
// on the workload; they say which layer moved when an end-to-end metric
// does.

// sample is what one batch cost. A driver whose batch did a different
// amount of work than the n it was asked for (whole timer rounds, packet
// hops) says so in ops.
type sample struct {
	el       time.Duration
	mallocs  uint64
	ops      int // operations the time divides by; 0 means the n asked for
	allocOps int // operations the allocations divide by; 0 means ops
}

func (s *sample) add(part sample) {
	s.el += part.el
	s.mallocs += part.mallocs
}

// timed measures f alone: drivers build their inputs before calling it.
func timed(f func()) sample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return sample{el: el, mallocs: m1.Mallocs - m0.Mallocs}
}

const layerBatches = 5

// layerBench runs drivers under one time budget and collects their metrics.
type layerBench struct {
	seed  int64
	batch time.Duration // target length of one batch
	out   []layerMetric
}

func (b *layerBench) emit(name string, v float64) {
	b.out = append(b.out, layerValue(name, v))
}

// run sizes a batch of op to the batch budget, then reports the median
// nanoseconds per operation over layerBatches batches and the mean
// allocations per operation. op performs n operations and returns what they
// cost, excluding its own set-up.
func (b *layerBench) run(op func(n int) (sample, error)) (nsPerOp, allocsPerOp float64, err error) {
	n := 1
	for {
		s, err := op(n)
		if err != nil {
			return 0, 0, err
		}
		if s.el >= b.batch/2 || n >= 1<<28 {
			break
		}
		grow := 100.0
		if s.el > 0 {
			grow = 1.2 * float64(b.batch) / float64(s.el)
		}
		if grow > 100 {
			grow = 100
		}
		if grow < 2 {
			grow = 2
		}
		n = int(float64(n) * grow)
	}
	var ns []float64
	var mallocs, allocOps float64
	for i := 0; i < layerBatches; i++ {
		s, err := op(n)
		if err != nil {
			return 0, 0, err
		}
		if s.ops == 0 {
			s.ops = n
		}
		if s.allocOps == 0 {
			s.allocOps = s.ops
		}
		ns = append(ns, float64(s.el.Nanoseconds())/float64(s.ops))
		mallocs += float64(s.mallocs)
		allocOps += float64(s.allocOps)
	}
	return median(ns), mallocs / allocOps, nil
}

// layerDrivers lists every isolated driver in report order.
var layerDrivers = []struct {
	name string
	fn   func(b *layerBench) error
}{
	{"topology", driveTopology},
	{"simnet.sched", driveSched},
	{"simnet.net", driveNet},
	{"simnet.snapshot", driveSnapshot},
	{"transport", driveTransport},
	{"core", driveCore},
	{"overlay", driveOverlay},
	{"statecopy", driveStatecopy},
	{"harness", driveHarness},
	{"scenario", driveScenario},
	{"obs", driveObs},
	{"translator", driveTranslator},
}

// runLayers runs every isolated driver. budget is the wall time the timed
// batches may take in total; set-up comes on top.
func runLayers(seed int64, budget time.Duration, progress func(format string, args ...any)) ([]layerMetric, error) {
	const timedMetrics = 60 // batches-worth of drivers: keeps one batch near budget/300
	b := &layerBench{seed: seed, batch: budget / (timedMetrics * layerBatches)}
	for _, d := range layerDrivers {
		t0 := time.Now()
		if err := d.fn(b); err != nil {
			return nil, fmt.Errorf("layer driver %s: %w", d.name, err)
		}
		progress("layer driver %s: %.2fs", d.name, time.Since(t0).Seconds())
	}
	return b.out, nil
}

// benchGraph is the churn workload's topology: the drivers measure the
// layers at the size the end-to-end runs use them.
func benchGraph(seed int64) (*topology.Graph, []overlay.Address, error) {
	s := churnScenario(seed)
	g, err := topology.INET(topology.DefaultINET(s.Routers, seed))
	if err != nil {
		return nil, nil, err
	}
	addrs := topology.AttachClients(g, s.Nodes, 1, topology.DefaultAccess, seed+1)
	if len(addrs) != s.Nodes || g.NumRouters() < s.Routers+s.Nodes {
		return nil, nil, fmt.Errorf("topology: %d clients on %d vertices, want %d on >=%d", len(addrs), g.NumRouters(), s.Nodes, s.Routers+s.Nodes)
	}
	return g, addrs, nil
}

func clientVertices(g *topology.Graph, addrs []overlay.Address) ([]topology.RouterID, error) {
	vs := make([]topology.RouterID, len(addrs))
	for i, a := range addrs {
		v, ok := g.ClientVertex(a)
		if !ok {
			return nil, fmt.Errorf("topology: client %v has no vertex", a)
		}
		vs[i] = v
	}
	return vs, nil
}

func driveTopology(b *layerBench) error {
	ns, _, err := b.run(func(n int) (sample, error) {
		var err error
		s := timed(func() {
			for i := 0; i < n && err == nil; i++ {
				_, _, err = benchGraph(b.seed)
			}
		})
		return s, err
	})
	if err != nil {
		return err
	}
	b.emit("topology.inet_build_ms", ns/1e6)

	g, addrs, err := benchGraph(b.seed)
	if err != nil {
		return err
	}
	vs, err := clientVertices(g, addrs)
	if err != nil {
		return err
	}
	// Cold: the first query toward a destination builds its shortest-path
	// tree. Every query below targets a destination the oracle has not seen.
	ns, _, err = b.run(func(n int) (sample, error) {
		var s sample
		for done := 0; done < n; {
			r := topology.NewRoutes(g)
			k := min(n-done, len(vs)-1)
			var bad error
			part := timed(func() {
				for i := 0; i < k; i++ {
					if len(r.Path(vs[0], vs[i+1])) == 0 {
						bad = fmt.Errorf("no route %v -> %v", vs[0], vs[i+1])
					}
				}
			})
			if bad != nil {
				return s, bad
			}
			if r.CachedTrees() == 0 {
				return s, fmt.Errorf("cold route queries cached no tree")
			}
			s.add(part)
			done += k
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("topology.route_cold_us", ns/1e3)

	warm := topology.NewRoutes(g)
	warm.SetTreeBudget(-1)
	for _, v := range vs[1:] {
		warm.Path(vs[0], v)
	}
	rng := rand.New(rand.NewSource(b.seed))
	pairs := make([][2]topology.RouterID, 1024)
	for i := range pairs {
		src, dst := rng.Intn(len(vs)), 1+rng.Intn(len(vs)-1)
		if src == dst {
			src = 0
		}
		pairs[i] = [2]topology.RouterID{vs[src], vs[dst]}
	}
	ns, _, err = b.run(func(n int) (sample, error) {
		hops := 0
		s := timed(func() {
			for i := 0; i < n; i++ {
				p := pairs[i%len(pairs)]
				hops += len(warm.Path(p[0], p[1]))
			}
		})
		if hops < n {
			return s, fmt.Errorf("cached route queries returned %d hops for %d paths", hops, n)
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("topology.route_cached_ns", ns)

	ns, _, err = b.run(func(n int) (sample, error) {
		var assign []int32
		s := timed(func() {
			for i := 0; i < n; i++ {
				assign = topology.PartitionLatency(g, 2)
			}
		})
		if len(assign) != g.NumRouters() {
			return s, fmt.Errorf("partition assigned %d of %d vertices", len(assign), g.NumRouters())
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("topology.partition_latency_ms", ns/1e6)
	return nil
}

// tickers is how many self-rescheduling timers the scheduler drivers keep
// pending: a small heap, so the figure is the loop's fixed cost per event.
const tickers = 64

func driveSched(b *layerBench) error {
	// One shard: no-op timers that reschedule themselves every millisecond.
	sched := simnet.NewScheduler(b.seed)
	defer sched.Close()
	fired := 0
	for i := 0; i < tickers; i++ {
		var tick func()
		tick = func() {
			fired++
			sched.After(time.Millisecond, tick)
		}
		sched.After(time.Millisecond, tick)
	}
	ns, allocs, err := b.run(func(n int) (sample, error) {
		ms := max(n/tickers, 1)
		before, execBefore := fired, sched.Executed()
		s := timed(func() { sched.RunFor(time.Duration(ms) * time.Millisecond) })
		events := int(sched.Executed() - execBefore)
		if fired-before != ms*tickers || events < ms*tickers {
			return s, fmt.Errorf("scheduler ran %d timers (%d events), want %d", fired-before, events, ms*tickers)
		}
		s.ops = events
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("simnet.sched_ns_per_event", ns)
	b.emit("simnet.sched_allocs_per_event", allocs)

	// Two shards: the same timers owned by the nodes of a small network, so
	// every millisecond of virtual time crosses lookahead barriers.
	g, err := topology.INET(topology.DefaultINET(100, b.seed))
	if err != nil {
		return err
	}
	addrs := topology.AttachClients(g, tickers, 1, topology.DefaultAccess, b.seed+1)
	sh := simnet.NewSharded(b.seed, 2)
	defer sh.Close()
	net := simnet.New(sh, g, simnet.Config{})
	counts := make([]int, len(addrs)) // one slot per node: shards never share one
	for i, a := range addrs {
		sub, err := net.NodeNet(a)
		if err != nil {
			return err
		}
		var tick func()
		tick = func() {
			counts[i]++
			sub.After(time.Millisecond, tick)
		}
		sub.After(time.Millisecond, tick)
	}
	total := func() int {
		t := 0
		for _, c := range counts {
			t += c
		}
		return t
	}
	ns, _, err = b.run(func(n int) (sample, error) {
		ms := max(n/tickers, 1)
		before := total()
		s := timed(func() { sh.RunFor(time.Duration(ms) * time.Millisecond) })
		if got := total() - before; got != ms*tickers {
			return s, fmt.Errorf("sharded scheduler ran %d timers, want %d", got, ms*tickers)
		}
		s.ops = ms * tickers
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("simnet.sched_ns_per_event_sh2", ns)
	return nil
}

// driveNet times raw datagrams across the emulated topology with no-op
// receivers: the cost of a packet-hop with nothing above the network. The
// 1000-byte figure should equal the 64-byte one if nothing copies payloads.
func driveNet(b *layerBench) error {
	for _, c := range []struct {
		size   int
		suffix string
		allocs bool
	}{{64, "", true}, {1000, "_1k", false}} {
		g, addrs, err := benchGraph(b.seed)
		if err != nil {
			return err
		}
		vs, err := clientVertices(g, addrs)
		if err != nil {
			return err
		}
		sched := simnet.NewScheduler(b.seed)
		net := simnet.New(sched, g, simnet.Config{})
		delivered := 0
		eps := make([]substrate.Endpoint, len(addrs))
		for i, a := range addrs {
			ep, err := net.Endpoint(a)
			if err != nil {
				return err
			}
			ep.SetRecv(func(overlay.Address, []byte) { delivered++ })
			eps[i] = ep
		}
		// Round i: every client sends one datagram to the client i+1 places
		// on. Access pipes see one packet per round, so nothing is dropped.
		routes := net.Routes()
		hopsAt := make([]int, len(addrs)) // hops of one whole round at shift k
		for k := 1; k < len(addrs); k++ {
			for i := range addrs {
				hopsAt[k] += len(routes.Path(vs[i], vs[(i+k)%len(addrs)]))
			}
		}
		payload := make([]byte, c.size)
		shift := 0
		ns, allocs, err := b.run(func(n int) (sample, error) {
			rounds := max(n/len(addrs), 1)
			sent, hops := 0, 0
			before := delivered
			var bad error
			s := timed(func() {
				for r := 0; r < rounds; r++ {
					shift = shift%(len(addrs)-1) + 1
					for i, ep := range eps {
						if err := ep.Send(addrs[(i+shift)%len(addrs)], payload); err != nil {
							bad = err
							return
						}
					}
					sent += len(eps)
					hops += hopsAt[shift]
					sched.RunFor(time.Second)
				}
			})
			if bad != nil {
				return s, bad
			}
			if delivered-before != sent {
				return s, fmt.Errorf("network delivered %d of %d datagrams", delivered-before, sent)
			}
			s.ops, s.allocOps = hops, sent
			return s, nil
		})
		sched.Close()
		if err != nil {
			return err
		}
		b.emit("simnet.net_ns_per_pkt_hop"+c.suffix, ns)
		if c.allocs {
			b.emit("simnet.net_allocs_per_pkt", allocs)
		}
	}
	return nil
}

// snapshotPending is the event backlog the snapshot driver checkpoints.
const snapshotPending = 20000

func driveSnapshot(b *layerBench) error {
	g, _, err := benchGraph(b.seed)
	if err != nil {
		return err
	}
	sched := simnet.NewScheduler(b.seed)
	defer sched.Close()
	net := simnet.New(sched, g, simnet.Config{})
	for i := 0; i < snapshotPending; i++ {
		sched.After(time.Duration(i+1)*time.Microsecond, func() {})
	}
	var sc *simnet.SchedulerSnapshot
	var nc *simnet.NetworkSnapshot
	ns, _, err := b.run(func(n int) (sample, error) {
		s := timed(func() {
			for i := 0; i < n; i++ {
				sc, nc = sched.Snapshot(), net.Snapshot()
			}
		})
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("simnet.snapshot_ms", ns/1e6)
	ns, _, err = b.run(func(n int) (sample, error) {
		var s sample
		for i := 0; i < n; i++ {
			// Drain part of the backlog so the restore has something to undo.
			sched.RunFor(time.Millisecond)
			part := timed(func() {
				sched.Restore(sc)
				net.Restore(nc)
			})
			s.add(part)
			if sched.Pending() != snapshotPending || sched.Elapsed() != 0 {
				return s, fmt.Errorf("restore left %d pending at %v, want %d at 0", sched.Pending(), sched.Elapsed(), snapshotPending)
			}
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("simnet.restore_ms", ns/1e6)
	return nil
}

// muxPair is two transport muxes on a two-client network whose middle link
// can be degraded.
type muxPair struct {
	sched *simnet.Scheduler
	net   *simnet.Network
	a, b  *transport.Mux
	mid   [2]topology.LinkID
}

func newMuxPair(seed int64) (*muxPair, error) {
	g := topology.NewGraph()
	r1, r2 := g.AddRouter(), g.AddRouter()
	fwd, rev := g.AddLink(r1, r2, 5*time.Millisecond, 100_000_000, 1<<20)
	// Queues deeper than TCP's largest flight, so only injected loss drops.
	access := topology.AccessLink{Latency: time.Millisecond, Bandwidth: 100_000_000, QueueBytes: 1 << 20}
	g.AttachClient(1, r1, access)
	g.AttachClient(2, r2, access)
	sched := simnet.NewScheduler(seed)
	net := simnet.New(sched, g, simnet.Config{})
	epa, err := net.Endpoint(1)
	if err != nil {
		return nil, err
	}
	epb, err := net.Endpoint(2)
	if err != nil {
		return nil, err
	}
	return &muxPair{sched, net, transport.NewMux(epa, net), transport.NewMux(epb, net), [2]topology.LinkID{fwd, rev}}, nil
}

func driveTransport(b *layerBench) error {
	// UDP: 64-byte frames, emit to deliver.
	p, err := newMuxPair(b.seed)
	if err != nil {
		return err
	}
	udp := p.a.AddUDP("u")
	p.b.AddUDP("u")
	frames := 0
	p.b.SetRecv(func(string, overlay.Address, []byte) { frames++ })
	frame := make([]byte, 64)
	ns, allocs, err := b.run(func(n int) (sample, error) {
		before := frames
		var bad error
		s := timed(func() {
			for sent := 0; sent < n; {
				k := min(n-sent, 32)
				for i := 0; i < k; i++ {
					if err := udp.Send(2, frame); err != nil {
						bad = err
						return
					}
				}
				sent += k
				p.sched.RunFor(50 * time.Millisecond)
			}
		})
		if bad != nil {
			return s, bad
		}
		if frames-before != n {
			return s, fmt.Errorf("udp delivered %d of %d frames", frames-before, n)
		}
		return s, nil
	})
	p.sched.Close()
	if err != nil {
		return err
	}
	b.emit("transport.udp_ns_per_frame", ns)
	b.emit("transport.udp_allocs_per_frame", allocs)

	// TCP: bulk kilobytes in 16 KiB frames over a clean path. At most 1 MiB
	// is queued at a time: the connection caps its send queue.
	p, err = newMuxPair(b.seed)
	if err != nil {
		return err
	}
	tcp := p.a.AddTCP("t")
	p.b.AddTCP("t")
	got := 0
	p.b.SetRecv(func(_ string, _ overlay.Address, f []byte) { got += len(f) })
	chunk := make([]byte, 16<<10)
	ns, allocs, err = b.run(func(n int) (sample, error) {
		want := n << 10
		before := got
		var bad error
		s := timed(func() {
			for sent := 0; sent < want; {
				if tcp.QueuedBytes(2) > 1<<20 {
					p.sched.RunFor(100 * time.Millisecond)
					continue
				}
				k := min(want-sent, len(chunk))
				if err := tcp.Send(2, chunk[:k]); err != nil {
					bad = err
					return
				}
				sent += k
			}
			for i := 0; i < 100 && got-before < want; i++ {
				p.sched.RunFor(time.Second)
			}
		})
		if bad != nil {
			return s, bad
		}
		if got-before != want {
			return s, fmt.Errorf("tcp delivered %d of %d bytes", got-before, want)
		}
		return s, nil
	})
	if err == nil && tcp.Stats().Retransmits != 0 {
		err = fmt.Errorf("tcp retransmitted %d segments on a clean path", tcp.Stats().Retransmits)
	}
	p.sched.Close()
	if err != nil {
		return err
	}
	b.emit("transport.tcp_ns_per_kb", ns)
	b.emit("transport.tcp_allocs_per_kb", allocs)

	// TCP under 5% loss on the middle link: the timeout-and-retransmit path.
	// One 1 KB frame is in flight at a time. With more, a timeout that fires
	// while the receiver holds out-of-order data wedges the connection for
	// good at this commit (the sender rolls snd_nxt back and then ignores the
	// cumulative ack beyond it), and a driver may not run operations that
	// fail. README.md records the defect.
	p, err = newMuxPair(b.seed)
	if err != nil {
		return err
	}
	for _, l := range p.mid {
		p.net.DegradeLink(l, simnet.Degradation{LossRate: 0.05})
	}
	tcp = p.a.AddTCP("t")
	p.b.AddTCP("t")
	got = 0
	p.b.SetRecv(func(_ string, _ overlay.Address, f []byte) { got += len(f) })
	ns, _, err = b.run(func(n int) (sample, error) {
		before := got
		var bad error
		s := timed(func() {
			for i := 0; i < n && bad == nil; i++ {
				if bad = tcp.Send(2, chunk[:1<<10]); bad != nil {
					return
				}
				// The retransmit timer backs off to at most a minute.
				for j := 0; j < 20000 && tcp.QueuedBytes(2) > 0; j++ {
					p.sched.RunFor(20 * time.Millisecond)
				}
				if tcp.QueuedBytes(2) > 0 {
					bad = fmt.Errorf("lossy tcp frame %d never acknowledged", i)
				}
			}
		})
		if bad != nil {
			return s, bad
		}
		if got-before != n<<10 {
			return s, fmt.Errorf("lossy tcp delivered %d of %d bytes", got-before, n<<10)
		}
		return s, nil
	})
	if err == nil && tcp.Stats().Retransmits == 0 {
		err = fmt.Errorf("lossy tcp run never retransmitted")
	}
	p.sched.Close()
	if err != nil {
		return err
	}
	b.emit("transport.tcp_lossy_ns_per_kb", ns)
	return nil
}
