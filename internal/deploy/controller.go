package deploy

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"macedon/internal/check"
	"macedon/internal/core"
	"macedon/internal/obs"
	"macedon/internal/overlay"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
)

// Config describes one live deployment run.
type Config struct {
	// Scenario is the experiment to execute — the same declarative files
	// `macedon scenario` runs on the emulator.
	Scenario *scenario.Scenario
	// Speed divides the scenario timeline (1 = real time). Protocol
	// timers are NOT compressed; keep it modest (docs/deploy.md).
	Speed float64
	// Host and BasePort place the fleet's UDP sockets: node i binds
	// Host:BasePort+i. Defaults: 127.0.0.1, 40000.
	Host     string
	BasePort int
	// AgentCmd is the argv prefix that starts one agent process; the
	// controller appends "-controller <addr> -node <i>". `macedon deploy`
	// uses its own binary: {os.Executable(), "agent"}.
	AgentCmd []string
	// AgentLogDir, when set, collects one log file per agent process.
	AgentLogDir string
	// Out receives progress lines (nil = silent).
	Out io.Writer
	// Obs enables the observability plane: the controller assembles the
	// same Report.Obs sections the sim engine emits (metric families,
	// sampled event log, operation trace spans), and agents stream their
	// sampled event-log lines back over the control protocol.
	Obs bool
	// TraceSample keeps 1-in-N operation traces and event records, keyed by
	// hash on the scenario seed — the identical sampled population a sim run
	// of the same scenario traces. 0 or 1 keeps everything.
	TraceSample int
	// MetricsBase, when nonzero, has agent i serve Prometheus text-format
	// metrics at http://Host:MetricsBase+i/metrics (plus /debug/obs) for
	// external scrapers. The controller never dials an agent: the fleet
	// pages in Report.Obs ride the poll replies (Metrics.Expo).
	MetricsBase int
	// MetricsHost is the bind address of each agent's metrics listener
	// (empty = 127.0.0.1). Real-cluster deployments set a routable interface
	// or 0.0.0.0 so an external Prometheus can scrape the fleet.
	MetricsHost string
}

// degradeBase is the latency unit a degrade event's LatencyFactor is scaled
// by on the live path: the added one-way delay is degradeBase×(factor−1).
const degradeBase = 5 * time.Millisecond

// agentSlot is the controller's view of one fleet member.
type agentSlot struct {
	proc *exec.Cmd
	conn *Conn
	// gen counts process launches of this slot; a stale connection (from a
	// SIGKILLed generation) is ignored when it finally reaps.
	gen     int
	logFile *os.File
	// metrics is the last snapshot this slot answered a poll with (the
	// current process generation's counters, which restart at zero on
	// every SIGKILL/relaunch), including — obs runs only — the agent's
	// exposition page taken at the same instant.
	metrics  Metrics
	hasStats bool
	// retired accumulates the socket counters of dead generations (their
	// last polled snapshots), so the slot's cumulative network totals
	// never move backwards across restarts. Engine counters are NOT
	// retired: the emulator's per-phase counter sums likewise see only
	// the live node objects, whose counters also restart on revive.
	retired Metrics
	pollCh  chan *Metrics
	// state is the last routing-state snapshot a state-carrying poll
	// brought back (correctness plane); cleared on kill like the metrics.
	state *check.NodeState
}

// controller executes a compiled schedule against a fleet of agent
// processes. It is the scenario.Backend the shared engine drives — processes
// and the wall clock — and it walks the schedule's cues (walk), taking mu
// around the engine's coordinator calls. The engine owns every count,
// stamp, trace line and verdict; what lives here is the fleet, the shaping
// rules, and the per-agent metric pages.
type controller struct {
	cfg   Config
	s     *scenario.Scenario
	sched *scenario.Schedule
	table map[string]string
	ln    net.Listener
	start time.Time

	// mu guards everything below, and every call into eng.
	mu     sync.Mutex
	eng    *scenario.Engine
	agents []*agentSlot

	// Shaping source of truth beyond the engine's reachability flags,
	// recompiled into per-agent rule sets on every change (and on agent
	// restart).
	partitionA int // side-A size; 0 = no partition
	degLoss    []float64
	degDelay   []time.Duration

	// outbox holds the control messages the engine's backend calls queued
	// under mu; the executor wrappers write them after unlocking, because a
	// TCP write that blocks on a slow agent must not stall the agent readers
	// waiting for mu.
	outbox []outMsg

	// agentLines collects sampled event-log lines streamed back by agents
	// (EvObs), prefixed with their node index.
	agentLines []string
	// pages are the agents' metric pages as report parsed them, kept for
	// the Families hook the engine calls while report assembles (obs).
	pages []*obs.Scrape
}

type outMsg struct {
	conn *Conn
	msg  *Msg
}

// Run executes the scenario as a live localhost deployment and returns
// the same structured report the emulated path produces — assembled by the
// same scenario.Engine, which is what makes the two reports comparable
// (metrics.Grade, live_test.go).
func Run(cfg Config) (*scenario.Report, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("deploy: no scenario")
	}
	if len(cfg.AgentCmd) == 0 {
		return nil, fmt.Errorf("deploy: no agent command")
	}
	if cfg.Host == "" {
		cfg.Host = "127.0.0.1"
	}
	if cfg.BasePort == 0 {
		cfg.BasePort = 40000
	}
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	s := cfg.Scenario
	if s.Sites > 0 {
		return nil, fmt.Errorf("deploy: scenario %q: sites: the site matrix is an emulator topology; live hosts have none to build", s.Name)
	}
	// Compile resolves the stack the agents build, so an unknown protocol
	// or param fails here, before any process starts.
	sched, err := scenario.Compile(s)
	if err != nil {
		return nil, err
	}
	table := make(map[string]string, s.Nodes)
	for i := 0; i < s.Nodes; i++ {
		table[strconv.FormatUint(uint64(scenario.Addr(i)), 10)] = fmt.Sprintf("%s:%d", cfg.Host, cfg.BasePort+i)
	}
	ln, err := net.Listen("tcp", cfg.Host+":0")
	if err != nil {
		return nil, fmt.Errorf("deploy: control listener: %w", err)
	}
	c := &controller{
		cfg:      cfg,
		s:        s,
		sched:    sched,
		table:    table,
		ln:       ln,
		agents:   make([]*agentSlot, s.Nodes),
		degLoss:  make([]float64, s.Nodes),
		degDelay: make([]time.Duration, s.Nodes),
	}
	for i := range c.agents {
		c.agents[i] = &agentSlot{pollCh: make(chan *Metrics, 1)}
	}
	// One accounting row: the controller serialises deliveries under mu.
	ecfg := scenario.EngineConfig{Echo: cfg.Out}
	if cfg.Obs {
		// No scheduler here, so no lead columns: a live series lines up with
		// the engine-owned tail of a sim run's.
		ecfg.Obs = &scenario.ObsConfig{TraceSample: cfg.TraceSample}
	}
	if c.eng, err = scenario.NewEngine(sched, c, ecfg); err != nil {
		_ = ln.Close()
		return nil, err
	}
	defer c.shutdown()
	go c.acceptLoop()

	// A wedged run is aborted two minutes after the scaled timeline ends.
	timeout := time.Duration(float64(sched.Total)/cfg.Speed) + 2*time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	c.start = time.Now()
	fmt.Fprintf(cfg.Out, "deploy %q: %d nodes on %s:%d.., control %s, speed %.3gx, wall ≈%s\n",
		s.Name, s.Nodes, cfg.Host, cfg.BasePort, ln.Addr(), cfg.Speed,
		time.Duration(float64(sched.Total)/cfg.Speed).Round(time.Second))
	if err := walk(ctx, sched, cfg.Speed, c.apply, c.boundary); err != nil {
		return nil, err
	}
	return c.report(), nil
}

// --- fleet plumbing ----------------------------------------------------------

// acceptLoop admits agent control connections: each one introduces itself
// with a hello, gets its config, and is served by a reader goroutine.
func (c *controller) acceptLoop() {
	for {
		tc, err := c.ln.Accept()
		if err != nil {
			return // listener closed: run over
		}
		go c.admit(tc)
	}
}

func (c *controller) admit(tc net.Conn) {
	conn := NewConn(tc)
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	m, err := conn.Recv()
	if err != nil || m.Kind != KindHello || m.Hello == nil {
		_ = conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	i := m.Hello.Node
	if i < 0 || i >= len(c.agents) {
		_ = conn.Close()
		return
	}
	c.mu.Lock()
	slot := c.agents[i]
	slot.conn = conn
	gen := slot.gen
	cfgMsg := &Msg{Kind: KindConfig, Config: c.agentConfigLocked(i)}
	c.mu.Unlock()
	if err := conn.Send(cfgMsg); err != nil {
		_ = conn.Close()
		return
	}
	c.reader(i, gen, conn)
}

// agentConfigLocked assembles node i's config, including the shaping rules
// currently in force (c.mu held).
func (c *controller) agentConfigLocked(i int) *AgentConfig {
	ac := &AgentConfig{
		Node:             i,
		Protocol:         c.s.ProtocolName(),
		Params:           c.s.Params,
		Table:            c.table,
		HeartbeatAfterNs: int64(c.s.HeartbeatAfter.D()),
		FailAfterNs:      int64(c.s.FailAfter.D()),
		Shape:            c.rulesForLocked(i),
		Obs:              c.cfg.Obs,
	}
	if c.cfg.MetricsBase > 0 {
		ac.MetricsPort = c.cfg.MetricsBase + i
		ac.MetricsHost = c.cfg.MetricsHost
	}
	if g := c.sched.Group; g != nil {
		ac.HasGroup = true
		ac.Group = uint32(*g)
	}
	return ac
}

// reader consumes one agent connection's stream until it drops.
func (c *controller) reader(i, gen int, conn *Conn) {
	for {
		m, err := conn.Recv()
		if err != nil {
			c.mu.Lock()
			if c.agents[i].gen == gen && c.agents[i].conn == conn {
				c.agents[i].conn = nil
			}
			c.mu.Unlock()
			return
		}
		switch m.Kind {
		case KindEvent:
			c.onEvent(i, m.Event)
		case KindMetrics:
			if m.Metrics != nil {
				if m.State != nil {
					c.mu.Lock()
					c.agents[i].state = m.State
					c.mu.Unlock()
				}
				select {
				case c.agents[i].pollCh <- m.Metrics:
				default:
				}
			}
		}
	}
}

// scen maps a wall instant onto the scenario timeline (wall elapsed times
// the speed factor): the one place wall stamps are converted, so everything
// the engine records lines up with the schedule the emulator runs on.
func (c *controller) scen(t time.Time) time.Duration {
	return time.Duration(float64(t.Sub(c.start)) * c.cfg.Speed)
}

// onEvent hands one agent event to the engine (deliveries and forwards,
// stamped by the agent's clock) or to the fleet bookkeeping.
func (c *controller) onEvent(i int, ev *Event) {
	if ev == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case EvDeliver:
		c.eng.Deliver(ev.Op, i, 0, c.scen(time.Unix(0, ev.AtUnixNano)))
	case EvForward:
		c.eng.Forward(ev.Op, i, overlay.Address(ev.Next), 0, c.scen(time.Unix(0, ev.AtUnixNano)))
	case EvObs:
		if c.cfg.Obs && len(c.agentLines) < maxAgentLines {
			c.agentLines = append(c.agentLines, fmt.Sprintf("node=%d %s", i, ev.Line))
		}
	case EvState:
		c.eng.Tracef("node %d %s: state %s -> %s", i, ev.Proto, ev.From, ev.State)
	case EvFail:
		c.eng.Tracef("node %d %s: failure of %v detected", i, ev.Proto, overlay.Address(ev.Peer))
	}
}

// --- scenario.Backend (every method runs under mu, called by the engine) ------

func (c *controller) Now() time.Duration { return c.scen(time.Now()) }

// Spawn launches (or relaunches) agent process i. Its deliver and forward
// upcalls come back as EvDeliver/EvForward events (onEvent). The fork/exec
// happens under mu: milliseconds, and unlike a control write it waits on no
// peer.
func (c *controller) Spawn(i int, revive bool) (string, error) {
	argv := append(append([]string(nil), c.cfg.AgentCmd...),
		"-controller", c.ln.Addr().String(), "-node", strconv.Itoa(i))
	cmd := exec.Command(argv[0], argv[1:]...)
	var logf *os.File
	if c.cfg.AgentLogDir != "" {
		f, err := os.OpenFile(filepath.Join(c.cfg.AgentLogDir, fmt.Sprintf("agent-%d.log", i)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			logf = f
			cmd.Stdout, cmd.Stderr = f, f
		}
	}
	if err := cmd.Start(); err != nil {
		if logf != nil {
			logf.Close()
		}
		return "", fmt.Errorf("deploy: spawn agent %d: %w", i, err)
	}
	slot := c.agents[i]
	slot.gen++
	slot.proc = cmd
	slot.logFile = logf
	go func() { _ = cmd.Wait() }() // reap
	return fmt.Sprintf(" [pid %d]", cmd.Process.Pid), nil
}

// Kill SIGKILLs agent process i: live churn is real process death.
func (c *controller) Kill(i int) string {
	slot := c.agents[i]
	slot.gen++ // stale readers and reaps identify themselves
	if slot.hasStats {
		// Retire the dying generation's socket counters (as of its last
		// poll — traffic since then is lost, like any crash loses its
		// tail) so the slot's cumulative totals stay monotone.
		slot.retired.NetSent += slot.metrics.NetSent
		slot.retired.NetRecv += slot.metrics.NetRecv
		slot.retired.NetBytesSent += slot.metrics.NetBytesSent
		slot.retired.ShapeDrops += slot.metrics.ShapeDrops
		slot.retired.LossDrops += slot.metrics.LossDrops
		slot.metrics = Metrics{}
		slot.hasStats = false
	}
	slot.state = nil
	if slot.proc != nil && slot.proc.Process != nil {
		_ = slot.proc.Process.Kill()
	}
	if slot.conn != nil {
		_ = slot.conn.Close()
	}
	if slot.logFile != nil {
		_ = slot.logFile.Close()
	}
	slot.proc, slot.conn, slot.logFile = nil, nil, nil
	return " [SIGKILL]"
}

// Shape folds one network dynamic into the shaping state and queues every
// connected agent's recomputed rule set. Node and link outages need no state
// here: the rules read the engine's reachability flags.
func (c *controller) Shape(op scenario.Op) string {
	detail := ""
	switch op.Kind {
	case scenario.OpPartition:
		c.partitionA = op.SideA
	case scenario.OpHeal:
		c.partitionA = 0
	case scenario.OpDegrade:
		// A degrade op replaces the node's degradation outright, exactly
		// like the emulator's DegradeNodeAccess: factor <= 1 clears any
		// earlier added delay.
		c.degLoss[op.Node] = op.Loss
		c.degDelay[op.Node] = 0
		if op.LatencyFactor > 1 {
			c.degDelay[op.Node] = time.Duration(float64(degradeBase) * (op.LatencyFactor - 1))
		}
		detail = fmt.Sprintf(" [delay %v]", c.degDelay[op.Node])
	case scenario.OpRestore:
		c.degLoss[op.Node] = 0
		c.degDelay[op.Node] = 0
	}
	for i := range c.agents {
		c.queue(i, &Msg{Kind: KindShape, Shape: c.rulesForLocked(i)})
	}
	return detail
}

// Inject queues the op for its source agent.
func (c *controller) Inject(op scenario.Op) {
	c.queue(op.Node, &Msg{Kind: KindOp, Op: &OpCmd{ID: op.ID, Kind: op.Kind.String(), Key: op.Key, Size: op.Size}})
}

// queue puts one control message for agent i in the outbox if it is
// connected.
func (c *controller) queue(i int, m *Msg) {
	if conn := c.agents[i].conn; conn != nil {
		c.outbox = append(c.outbox, outMsg{conn, m})
	}
}

// Counters sums the latest polled engine counters over live agents (the
// emulator also drops dead nodes' counters).
func (c *controller) Counters() core.Counters {
	var sum core.Counters
	for i, slot := range c.agents {
		if slot.hasStats && c.eng.Alive(i) {
			sum.MsgsSent += slot.metrics.MsgsSent
			sum.MsgsRecv += slot.metrics.MsgsRecv
			sum.BytesSent += slot.metrics.BytesSent
			sum.BytesRecv += slot.metrics.BytesRecv
		}
	}
	return sum
}

// NetStats reduces the latest per-agent snapshots to cumulative socket
// counters over every agent, retired generations included.
func (c *controller) NetStats() simnet.Stats {
	var net simnet.Stats
	for _, slot := range c.agents {
		m := slot.retired
		if slot.hasStats {
			m.NetSent += slot.metrics.NetSent
			m.NetRecv += slot.metrics.NetRecv
			m.NetBytesSent += slot.metrics.NetBytesSent
			m.ShapeDrops += slot.metrics.ShapeDrops
			m.LossDrops += slot.metrics.LossDrops
		}
		net.Sent += m.NetSent
		net.Delivered += m.NetRecv
		// simnet.Stats.Bytes counts payload bytes entering the network, so
		// the live counterpart is bytes sent, not received.
		net.Bytes += m.NetBytesSent
		net.RandomLoss += m.LossDrops
		net.PartitionDrops += m.ShapeDrops
	}
	return net
}

// NodeState is the routing-state snapshot agent i's last state-carrying
// poll brought back; none yet when its process restarted since.
func (c *controller) NodeState(i int) (check.NodeState, bool) {
	if st := c.agents[i].state; st != nil {
		return *st, true
	}
	return check.NodeState{}, false
}

// rulesForLocked compiles the scenario-level network state (partition,
// downed hosts, degradations) into node i's outbound rule set. Every
// datagram crosses exactly one side's rules per direction, so loss and
// delay apply once per traversal like the emulator's access pipes
// (docs/deploy.md: scenario-to-wall-clock mapping).
func (c *controller) rulesForLocked(i int) *ShapeCmd {
	sc := &ShapeCmd{}
	if !c.eng.Reachable(i) {
		sc.Default = &PeerRule{Drop: true}
		return sc
	}
	if c.degLoss[i] > 0 || c.degDelay[i] > 0 {
		// This node's own degraded access pipe shapes all of its outbound.
		sc.Default = &PeerRule{Loss: c.degLoss[i], DelayNs: int64(c.degDelay[i])}
	}
	for j := range c.agents {
		if j == i {
			continue
		}
		a := scenario.Addr(j)
		switch {
		case !c.eng.Reachable(j):
			sc.Rules = append(sc.Rules, PeerRule{Peer: uint32(a), Drop: true})
		case c.partitionA > 0 && (i < c.partitionA) != (j < c.partitionA):
			sc.Rules = append(sc.Rules, PeerRule{Peer: uint32(a), Drop: true})
		case c.degLoss[j] > 0 || c.degDelay[j] > 0:
			// The peer's degraded pipe shapes traffic toward it. A
			// per-peer rule REPLACES the default on the agent, so when
			// this node is degraded too, compose both pipes the way the
			// emulated path (sender's access + receiver's access) would:
			// independent losses multiply through, delays add.
			loss := 1 - (1-c.degLoss[i])*(1-c.degLoss[j])
			sc.Rules = append(sc.Rules, PeerRule{Peer: uint32(a), Loss: loss,
				DelayNs: int64(c.degDelay[i] + c.degDelay[j])})
		}
	}
	return sc
}

// pollTimeout bounds one poll round.
var pollTimeout = 5 * time.Second

// poll gathers metrics from every live agent (last-known snapshots stand
// in for agents that do not answer in time, and the trace names them).
// withState additionally asks each agent for its routing-state snapshot
// (correctness plane).
func (c *controller) poll(withState bool) {
	type pending struct {
		i  int
		ch chan *Metrics
	}
	var waits []pending
	for i := range c.agents {
		c.mu.Lock()
		conn := c.agents[i].conn
		ch := c.agents[i].pollCh
		c.mu.Unlock()
		if conn == nil {
			continue
		}
		// Drain a stale answer from an earlier poll round.
		select {
		case <-ch:
		default:
		}
		if err := conn.Send(&Msg{Kind: KindPoll, PollState: withState}); err == nil {
			waits = append(waits, pending{i, ch})
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), pollTimeout)
	defer cancel()
	for _, w := range waits {
		var m *Metrics
		select {
		case m = <-w.ch:
		case <-ctx.Done():
			// One agent's silence costs only its own reply: past the
			// deadline nothing blocks, and what already arrived is kept.
			select {
			case m = <-w.ch:
			default:
			}
		}
		c.mu.Lock()
		if m != nil {
			c.agents[w.i].metrics = *m
			c.agents[w.i].hasStats = true
		} else {
			c.eng.Tracef("poll: node %d did not answer in %s", w.i, pollTimeout)
		}
		c.mu.Unlock()
	}
}

// --- the wall-clock walk -----------------------------------------------------

// walk fires the schedule's cues in the order scenario.Schedule.Cues lays
// out for both backends, each once its offset divided by speed has passed
// on the wall clock: a run of ops one op at a time through apply, a
// boundary through boundary. The first error apply returns ends the walk
// at once; so does ctx ending. Otherwise it returns when the drain window
// up to Total has passed, roughly Total/speed after it began.
func walk(ctx context.Context, sched *scenario.Schedule, speed float64, apply func(scenario.Op) error, boundary func(scenario.Cue)) error {
	start := time.Now()
	for c := range sched.Cues(-1, len(sched.Phases)-1) {
		if err := sleepUntil(ctx, start, c.At, speed); err != nil {
			return err
		}
		if c.Kind != scenario.CueOps {
			boundary(c)
			continue
		}
		for _, op := range sched.Ops[c.I:c.J] {
			if err := apply(op); err != nil {
				return err
			}
		}
	}
	return sleepUntil(ctx, start, sched.Total, speed)
}

// sleepUntil waits until schedule offset at, divided by speed, has passed
// since start.
func sleepUntil(ctx context.Context, start time.Time, at time.Duration, speed float64) error {
	wait := time.Duration(float64(at)/speed) - time.Since(start)
	if wait <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("deploy: wall-clock run aborted at %s: %w", at, ctx.Err())
	}
}

// apply runs one schedule op through the engine and then writes whatever
// control messages the backend calls queued.
func (c *controller) apply(op scenario.Op) error {
	c.mu.Lock()
	err := c.eng.Apply(op)
	c.mu.Unlock()
	c.flush()
	return err
}

// flush writes the queued control messages, outside mu.
func (c *controller) flush() {
	c.mu.Lock()
	out := c.outbox
	c.outbox = nil
	c.mu.Unlock()
	for _, o := range out {
		_ = o.conn.Send(o.msg)
	}
}

// boundary polls the fleet and takes the engine's snapshot at a boundary
// cue: the settle baseline phase deltas are measured against, or the end
// of phase cue.I — polled with routing state when the scenario opted into
// checks.
func (c *controller) boundary(cue scenario.Cue) {
	if cue.Kind == scenario.CueSettleEnd {
		c.poll(false)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.eng.SettleEnd()
		c.eng.Tracef("settle complete (%d live)", c.eng.Live())
		return
	}
	pi := cue.I
	c.poll(c.s.CheckConfig() != nil)
	c.mu.Lock()
	defer c.mu.Unlock()
	if pc := c.eng.PhaseEnd(pi); pc != nil {
		for _, vi := range pc.Violations {
			c.eng.Tracef("check violation %s", vi)
		}
	}
	// The phase's one series point: the totals the poll just gathered.
	ph := c.sched.Phases[pi]
	c.eng.Sample(pi, ph.End-ph.Start)
	c.eng.Tracef("phase %d (%s) complete", pi, ph.Name)
}

// --- teardown and report -----------------------------------------------------

// shutdown quits the fleet and releases everything.
func (c *controller) shutdown() {
	c.mu.Lock()
	for i := range c.agents {
		c.queue(i, &Msg{Kind: KindQuit})
	}
	c.mu.Unlock()
	c.flush()
	_ = c.ln.Close()
	// Give agents a moment to exit on their own, then make sure.
	time.Sleep(200 * time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.agents {
		c.Kill(i)
	}
}

// Families is the controller's contribution to the engine's own registry.
// The fleet's families come from the agents' pages, which report merges over
// the engine's exposition; only with no agent page at all does the
// controller mirror the polled totals into the families the agents would
// have served, so the exposition's family set matches a sim run's either
// way.
func (c *controller) Families(reg *obs.Registry) {
	if len(c.pages) == 0 {
		c.eng.MirrorTotals(reg)
	}
}

// report assembles the live run's structured report: the engine's, with the
// fleet's own metric pages merged into the exposition and the agents'
// event lines appended.
func (c *controller) report() *scenario.Report {
	c.poll(false)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.cfg.Obs {
		return c.eng.Report()
	}
	c.pages = c.fleetPagesLocked()
	rep := c.eng.Report()
	fleet := obs.NewFleet()
	if own, err := obs.ParseText([]byte(rep.Obs.Exposition)); err == nil {
		fleet.Add(own)
	}
	for _, sc := range c.pages {
		fleet.Add(sc)
	}
	rep.Obs.Exposition = fleet.Text()
	rep.Obs.Events = append(rep.Obs.Events, c.agentLines...)
	return rep
}
