package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"macedon/internal/codegen"
	"macedon/internal/core"
	"macedon/internal/dsl"
	"macedon/internal/harness"
	"macedon/internal/metrics"
	"macedon/internal/obs"
	"macedon/internal/overlay"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
	"macedon/internal/topology"
)

// clusterConfig is the cluster a scenario run builds for s: what setup_s,
// the NewCluster span and the harness drivers all construct.
func clusterConfig(s *scenario.Scenario, shards int) harness.ClusterConfig {
	return harness.ClusterConfig{
		Nodes:          s.Nodes,
		Routers:        s.Routers,
		Seed:           s.Seed,
		Shards:         shards,
		HeartbeatAfter: s.HeartbeatAfter.D(),
		FailAfter:      s.FailAfter.D(),
	}
}

// smallMsg is the three-field control message of the codec and engine
// drivers; bigMsg adds the 1000-byte payload of the multicast stream.
type smallMsg struct {
	Src overlay.Address
	Key overlay.Key
	N   int32
}

func (m *smallMsg) MsgName() string { return "small" }
func (m *smallMsg) Encode(w *overlay.Writer) {
	w.Addr(m.Src)
	w.Key(m.Key)
	w.I32(m.N)
}
func (m *smallMsg) Decode(r *overlay.Reader) error {
	m.Src, m.Key, m.N = r.Addr(), r.Key(), r.I32()
	return r.Err()
}

type bigMsg struct {
	smallMsg
	Payload []byte
}

func (m *bigMsg) MsgName() string { return "big" }
func (m *bigMsg) Encode(w *overlay.Writer) {
	m.smallMsg.Encode(w)
	w.Bytes32(m.Payload)
}
func (m *bigMsg) Decode(r *overlay.Reader) error {
	if err := m.smallMsg.Decode(r); err != nil {
		return err
	}
	m.Payload = append([]byte(nil), r.Bytes32()...)
	return r.Err()
}

// probe is a minimal agent: a no-op downcall transition, a message that
// bounces between two nodes while *left is positive, and an optional
// millisecond timer.
type probe struct {
	peer      overlay.Address
	timer     bool
	left      *int
	downcalls int
	recvd     int
	ticks     int
}

func (p *probe) ProtocolName() string { return "probe" }

func (p *probe) Define(d *core.Def) {
	d.States("up")
	d.Addressing(core.IPAddressing)
	d.UDPTransport("U")
	d.Message("small", func() overlay.Message { return &smallMsg{} }, "U")
	if p.timer {
		d.PeriodicTimer("tick", time.Millisecond)
	}
	d.OnAPI(overlay.APIInit, core.Any, core.Write, func(ctx *core.Context, _ *core.APICall) {
		ctx.StateChange("up")
		if p.timer {
			ctx.TimerSched("tick", 0)
		}
	})
	d.OnAPI(overlay.APIDowncallExt, core.Any, core.Read, func(ctx *core.Context, call *core.APICall) {
		if call.Op == 1 {
			_ = ctx.Send(p.peer, &smallMsg{Src: ctx.Self(), N: 1}, overlay.PriorityDefault)
			return
		}
		p.downcalls++
	})
	d.OnRecv("small", core.Any, core.Write, func(ctx *core.Context, ev *core.MsgEvent) {
		p.recvd++
		if *p.left > 0 {
			*p.left--
			_ = ctx.Send(ev.From, ev.Msg, overlay.PriorityDefault)
		}
	})
	if p.timer {
		d.OnTimer("tick", core.Any, core.Read, func(*core.Context) { p.ticks++ })
	}
}

// probeNodes starts one probe agent per address on a two-router network.
func probeNodes(seed int64, agents ...*probe) (*simnet.Scheduler, []*core.Node, error) {
	g := topology.NewGraph()
	r1, r2 := g.AddRouter(), g.AddRouter()
	g.AddLink(r1, r2, 5*time.Millisecond, 100_000_000, 1<<20)
	sched := simnet.NewScheduler(seed)
	for i := range agents {
		at := r1
		if i%2 == 1 {
			at = r2
		}
		g.AttachClient(overlay.Address(i+1), at, topology.DefaultAccess)
	}
	net := simnet.New(sched, g, simnet.Config{})
	var nodes []*core.Node
	for i, a := range agents {
		n, err := core.NewNode(core.Config{
			Addr: overlay.Address(i + 1), Net: net, Bootstrap: 1,
			Stack: []core.Factory{func() core.Agent { return a }},
		})
		if err != nil {
			return nil, nil, err
		}
		nodes = append(nodes, n)
	}
	sched.RunFor(time.Millisecond)
	return sched, nodes, nil
}

func driveCore(b *layerBench) error {
	// Dispatch: a downcall into a no-op read transition.
	p := &probe{left: new(int)}
	sched, nodes, err := probeNodes(b.seed, p)
	if err != nil {
		return err
	}
	ns, allocs, err := b.run(func(n int) (sample, error) {
		before := p.downcalls
		s := timed(func() {
			for i := 0; i < n; i++ {
				nodes[0].Downcall(0, nil)
			}
		})
		if p.downcalls-before != n {
			return s, fmt.Errorf("dispatched %d of %d downcalls", p.downcalls-before, n)
		}
		return s, nil
	})
	nodes[0].Stop()
	sched.Close()
	if err != nil {
		return err
	}
	b.emit("core.dispatch_ns", ns)
	b.emit("core.dispatch_allocs", allocs)

	// Message: one registered message bouncing between two nodes, i.e. send,
	// mux, simnet, post, decode, dispatch, per hop.
	left := new(int)
	pa, pb := &probe{peer: 2, left: left}, &probe{peer: 1, left: left}
	sched, nodes, err = probeNodes(b.seed, pa, pb)
	if err != nil {
		return err
	}
	ns, allocs, err = b.run(func(n int) (sample, error) {
		before := pa.recvd + pb.recvd
		*left = n - 1
		s := timed(func() {
			nodes[0].Downcall(1, nil)
			// A hop takes about 7 ms of virtual time.
			for i := 0; i < 100 && pa.recvd+pb.recvd-before < n; i++ {
				sched.RunFor(time.Duration(n)*10*time.Millisecond + time.Second)
			}
		})
		if got := pa.recvd + pb.recvd - before; got != n {
			return s, fmt.Errorf("engine delivered %d of %d messages", got, n)
		}
		return s, nil
	})
	for _, n := range nodes {
		n.Stop()
	}
	sched.Close()
	if err != nil {
		return err
	}
	b.emit("core.msg_ns", ns)
	b.emit("core.msg_allocs", allocs)

	// Timer: a periodic no-op timer transition.
	pt := &probe{timer: true, left: new(int)}
	sched, nodes, err = probeNodes(b.seed, pt)
	if err != nil {
		return err
	}
	ns, _, err = b.run(func(n int) (sample, error) {
		before := pt.ticks
		s := timed(func() { sched.RunFor(time.Duration(n) * time.Millisecond) })
		s.ops = pt.ticks - before
		if s.ops < n-1 {
			return s, fmt.Errorf("timer fired %d times in %d ms", s.ops, n)
		}
		return s, nil
	})
	nodes[0].Stop()
	sched.Close()
	if err != nil {
		return err
	}
	b.emit("core.timer_ns", ns)

	// Spawn: constructing and starting every node of the churn cluster.
	cs := churnScenario(b.seed)
	stack, err := harness.ScenarioStack(cs.Protocol)
	if err != nil {
		return err
	}
	ns, _, err = b.run(func(n int) (sample, error) {
		var s sample
		for i := 0; i < n; i++ {
			c, err := harness.NewCluster(clusterConfig(cs, 1))
			if err != nil {
				return s, err
			}
			part := timed(func() { err = c.SpawnAll(func(int) []core.Factory { return stack }) })
			spawned := len(c.Nodes)
			c.StopAll()
			if err != nil {
				return s, err
			}
			if spawned != cs.Nodes {
				return s, fmt.Errorf("spawned %d of %d nodes", spawned, cs.Nodes)
			}
			s.add(part)
		}
		s.ops = n * cs.Nodes
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("core.spawn_us_per_node", ns/1e3)
	return nil
}

func driveOverlay(b *layerBench) error {
	reg := overlay.NewRegistry("bench")
	reg.Register("small", func() overlay.Message { return &smallMsg{} })
	reg.Register("big", func() overlay.Message { return &bigMsg{} })
	small := &smallMsg{Src: 7, Key: overlay.HashAddress(7), N: 42}
	big := &bigMsg{smallMsg: *small, Payload: bytes.Repeat([]byte{0xa5}, 1000)}
	for _, c := range []struct {
		suffix string
		msg    overlay.Message
		same   func(overlay.Message) bool
	}{
		{"small", small, func(m overlay.Message) bool { g, ok := m.(*smallMsg); return ok && *g == *small }},
		{"1k", big, func(m overlay.Message) bool {
			g, ok := m.(*bigMsg)
			return ok && g.smallMsg == big.smallMsg && bytes.Equal(g.Payload, big.Payload)
		}},
	} {
		var frame []byte
		encNS, encAllocs, err := b.run(func(n int) (sample, error) {
			var err error
			s := timed(func() {
				for i := 0; i < n && err == nil; i++ {
					frame, err = overlay.EncodeMessage(reg, c.msg)
				}
			})
			return s, err
		})
		if err != nil {
			return err
		}
		decNS, decAllocs, err := b.run(func(n int) (sample, error) {
			var err error
			var got overlay.Message
			s := timed(func() {
				for i := 0; i < n && err == nil; i++ {
					got, err = overlay.DecodeMessage(reg, frame)
				}
			})
			if err == nil && !c.same(got) {
				err = fmt.Errorf("decoded %s message differs from the encoded one", c.suffix)
			}
			return s, err
		})
		if err != nil {
			return err
		}
		b.emit("overlay.encode_ns_"+c.suffix, encNS)
		b.emit("overlay.decode_ns_"+c.suffix, decNS)
		b.emit("overlay.codec_allocs_"+c.suffix, encAllocs+decAllocs)
	}

	ns, _, err := b.run(func(n int) (sample, error) {
		var acc overlay.Key
		s := timed(func() {
			for i := 0; i < n; i++ {
				acc ^= overlay.HashAddress(overlay.Address(i + 1))
			}
		})
		if n > 1 && acc == 0 {
			return s, fmt.Errorf("HashAddress folded %d addresses to zero", n)
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("overlay.hash_address_ns", ns)
	return nil
}

// settledNodes sizes the cluster the statecopy driver checkpoints.
const settledNodes = 100

func driveStatecopy(b *layerBench) error {
	cs := churnScenario(b.seed)
	cs.Nodes, cs.Routers = settledNodes, 3*settledNodes
	stack, err := harness.ScenarioStack(cs.Protocol)
	if err != nil {
		return err
	}
	c, err := harness.NewCluster(clusterConfig(cs, 1))
	if err != nil {
		return err
	}
	defer c.StopAll()
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		return err
	}
	c.RunFor(60 * time.Second)
	at := c.Sched.Elapsed()
	var cp *harness.Checkpoint
	ns, allocs, err := b.run(func(n int) (sample, error) {
		s := timed(func() {
			for i := 0; i < n; i++ {
				cp = c.Checkpoint()
			}
		})
		s.ops = n * settledNodes
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("statecopy.capture_us_per_node", ns/1e3)
	b.emit("statecopy.capture_allocs_per_node", allocs)
	ns, _, err = b.run(func(n int) (sample, error) {
		var s sample
		for i := 0; i < n; i++ {
			c.RunFor(100 * time.Millisecond) // dirty the world
			s.add(timed(func() { c.Restore(cp) }))
			if c.Sched.Elapsed() != at || len(c.Nodes) != settledNodes {
				return s, fmt.Errorf("restore left %d nodes at %v, want %d at %v", len(c.Nodes), c.Sched.Elapsed(), settledNodes, at)
			}
		}
		s.ops = n * settledNodes
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("statecopy.restore_us_per_node", ns/1e3)
	return nil
}

// smallSweep is a quick four-variant sweep for the harness driver: the fork
// machinery at a size where one sweep takes a fraction of a second.
func smallSweep(seed int64) *scenario.Sweep {
	sw := forkSweep(seed)
	sw.Base.Nodes, sw.Base.Routers = 60, 180
	return sw
}

func driveHarness(b *layerBench) error {
	cs := churnScenario(b.seed)
	ns, _, err := b.run(func(n int) (sample, error) {
		var s sample
		for i := 0; i < n; i++ {
			var c *harness.Cluster
			var err error
			s.add(timed(func() { c, err = harness.NewCluster(clusterConfig(cs, 1)) }))
			if err != nil {
				return s, err
			}
			c.StopAll()
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("harness.cluster_build_ms", ns/1e6)

	// One sweep, forked and cold: the report driver renders its first
	// variant, and the two walls are the fork machinery's own numbers.
	sw := smallSweep(b.seed)
	forked, err := harness.RunSweep(sw, 1)
	if err != nil {
		return err
	}
	var branches time.Duration
	for _, vr := range forked.Results {
		if !vr.SharedPrefix {
			return fmt.Errorf("sweep variant %s ran cold", vr.Name)
		}
		branches += vr.BranchWall
	}
	vs, err := sw.Resolve()
	if err != nil {
		return err
	}
	coldStart := time.Now()
	for i, v := range vs {
		rep, err := harness.RunScenarioExec(v.Scenario, harness.ExecOptions{Shards: 1})
		if err != nil {
			return err
		}
		if fingerprint(rep) != fingerprint(forked.Results[i].Report) {
			return fmt.Errorf("sweep variant %s: forked report differs from the cold run", v.Name)
		}
	}
	cold := time.Since(coldStart)
	b.emit("harness.fork_speedup", float64(time.Duration(len(vs))*forked.PrefixWall+branches)/float64(forked.TotalWall))
	b.emit("harness.fork_cold_wall_s", cold.Seconds())

	rep := forked.Results[0].Report
	ns, _, err = b.run(func(n int) (sample, error) {
		size := 0
		var err error
		s := timed(func() {
			for i := 0; i < n && err == nil; i++ {
				var js []byte
				js, err = metrics.ReportToJSON(rep)
				size = len(rep.String()) + len(js)
			}
		})
		if err == nil && size == 0 {
			err = fmt.Errorf("report rendered to nothing")
		}
		return s, err
	})
	if err != nil {
		return err
	}
	b.emit("harness.report_ms", ns/1e6)
	return nil
}

func driveScenario(b *layerBench) error {
	cs := churnScenario(b.seed)
	ops := 0
	ns, _, err := b.run(func(n int) (sample, error) {
		var err error
		s := timed(func() {
			for i := 0; i < n && err == nil; i++ {
				var sched *scenario.Schedule
				if sched, err = scenario.Compile(cs); err == nil {
					ops = len(sched.Ops)
				}
			}
		})
		if err == nil && ops < cs.Nodes {
			err = fmt.Errorf("schedule has %d ops for %d nodes", ops, cs.Nodes)
		}
		return s, err
	})
	if err != nil {
		return err
	}
	b.emit("scenario.compile_ms", ns/1e6)
	b.emit("scenario.ops", float64(ops))
	return nil
}

// obsFamilies sizes the registry the exposition drivers render and parse.
const obsFamilies = 50

func driveObs(b *layerBench) error {
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_counter_total", "driver counter")
	ns, _, err := b.run(func(n int) (sample, error) {
		before := ctr.Load()
		s := timed(func() {
			for i := 0; i < n; i++ {
				ctr.Inc()
			}
		})
		if ctr.Load()-before != uint64(n) {
			return s, fmt.Errorf("counter advanced %d for %d increments", ctr.Load()-before, n)
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("obs.counter_inc_ns", ns)

	hist := reg.Histogram("bench_latency_seconds", "driver histogram", obs.LatencyBuckets)
	ns, _, err = b.run(func(n int) (sample, error) {
		before := hist.Snapshot().Count
		s := timed(func() {
			for i := 0; i < n; i++ {
				hist.Observe(float64(i%1000) / 1000)
			}
		})
		if got := hist.Snapshot().Count - before; got != uint64(n) {
			return s, fmt.Errorf("histogram counted %d of %d observations", got, n)
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("obs.hist_observe_ns", ns)

	for i := 2; i < obsFamilies; i++ {
		name := fmt.Sprintf("bench_family_%02d", i)
		switch i % 3 {
		case 0:
			reg.Counter(name+"_total", "filler").Add(uint64(i))
		case 1:
			reg.Gauge(name, "filler").Set(float64(i))
		default:
			reg.Histogram(name+"_seconds", "filler", obs.LatencyBuckets).Observe(float64(i) / 100)
		}
	}
	if got := len(reg.Families()); got != obsFamilies {
		return fmt.Errorf("registry has %d families, want %d", got, obsFamilies)
	}
	var text string
	ns, _, err = b.run(func(n int) (sample, error) {
		s := timed(func() {
			for i := 0; i < n; i++ {
				text = reg.Text()
			}
		})
		return s, nil
	})
	if err != nil {
		return err
	}
	b.emit("obs.text_us", ns/1e3)
	ns, _, err = b.run(func(n int) (sample, error) {
		var sc *obs.Scrape
		var err error
		s := timed(func() {
			for i := 0; i < n && err == nil; i++ {
				sc, err = obs.ParseText([]byte(text))
			}
		})
		if err == nil && len(sc.Types) != obsFamilies {
			err = fmt.Errorf("parsed %d of %d families", len(sc.Types), obsFamilies)
		}
		return s, err
	})
	if err != nil {
		return err
	}
	b.emit("obs.parse_text_us", ns/1e3)
	return nil
}

// driveTranslator times the offline translator over the bundled
// specifications. No end-to-end metric depends on it; it is kept so a
// parser rewrite has a before and an after.
func driveTranslator(b *layerBench) error {
	paths, err := filepath.Glob(filepath.Join(repoRoot(), "specs", "*.mac"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no specs/*.mac under %s", repoRoot())
	}
	var srcs, names []string
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		srcs = append(srcs, string(src))
		names = append(names, "gen"+strings.TrimSuffix(filepath.Base(p), ".mac"))
	}
	specs := make([]*dsl.Spec, len(srcs))
	ns, _, err := b.run(func(n int) (sample, error) {
		var err error
		s := timed(func() {
			for i := 0; i < n && err == nil; i++ {
				for j, src := range srcs {
					if specs[j], err = dsl.Parse(src); err != nil {
						err = fmt.Errorf("%s: %w", paths[j], err)
						break
					}
				}
			}
		})
		s.ops = n * len(srcs)
		return s, err
	})
	if err != nil {
		return err
	}
	b.emit("dsl.parse_us_per_spec", ns/1e3)
	ns, _, err = b.run(func(n int) (sample, error) {
		var err error
		s := timed(func() {
			for i := 0; i < n && err == nil; i++ {
				for j, spec := range specs {
					var res *codegen.Result
					if res, err = codegen.Generate(spec, names[j]); err != nil {
						err = fmt.Errorf("%s: %w", paths[j], err)
						break
					}
					if res.Transitions == 0 {
						err = fmt.Errorf("%s: generated no transitions", paths[j])
						break
					}
				}
			}
		})
		s.ops = n * len(specs)
		return s, err
	})
	if err != nil {
		return err
	}
	b.emit("codegen.generate_us_per_spec", ns/1e3)
	return nil
}
