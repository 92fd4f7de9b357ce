package deploy

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"macedon/internal/check"
	"macedon/internal/core"
	"macedon/internal/livenet"
	"macedon/internal/obs"
	"macedon/internal/overlay"
	"macedon/internal/scenario"
)

// RunAgent is the body of `macedon agent`: one overlay node in one OS
// process, remote-controlled by a deploy controller. It dials the
// controller, introduces itself, receives its AgentConfig, binds its
// livenet socket, runs the protocol stack, and serves control commands
// until told to quit or the control connection drops (the controller
// died — a headless agent exits rather than lingering).
func RunAgent(controller string, node int, logw io.Writer) error {
	if logw == nil {
		logw = io.Discard
	}
	tc, err := net.Dial("tcp", controller)
	if err != nil {
		return fmt.Errorf("deploy agent: dial controller: %w", err)
	}
	conn := NewConn(tc)
	defer conn.Close()
	if err := conn.Send(&Msg{Kind: KindHello, Hello: &Hello{Node: node, Pid: os.Getpid()}}); err != nil {
		return err
	}
	m, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("deploy agent: awaiting config: %w", err)
	}
	if m.Kind != KindConfig || m.Config == nil {
		return fmt.Errorf("deploy agent: expected config, got %q", m.Kind)
	}
	cfg := m.Config
	fmt.Fprintf(logw, "agent %d: pid %d addr %v proto %s\n", node, os.Getpid(), uint32(scenario.Addr(cfg.Node)), cfg.Protocol)

	a := &agent{conn: conn, cfg: cfg, logw: logw}
	if err := a.start(); err != nil {
		return err
	}
	defer a.stop()
	return a.serve()
}

type agent struct {
	conn *Conn
	cfg  *AgentConfig
	logw io.Writer
	net  *livenet.Network
	node *core.Node

	// Observability plane: reg serves /metrics, events is the sampled
	// structured log (ring for /debug/obs, teed to the controller as EvObs
	// frames when cfg.Obs), httpLn is the /metrics listener.
	reg     *obs.Registry
	events  *obs.EventLog
	started time.Time
	httpLn  net.Listener
}

// start builds the livenet substrate and the overlay node.
func (a *agent) start() error {
	// Node i, address scenario.Addr(i), binds Host:BasePort+i.
	a.net = livenet.New(a.cfg.Host, a.cfg.BasePort-int(scenario.Addr(0)))
	if a.cfg.Shape != nil {
		a.applyShape(a.cfg.Shape)
	}
	stack, err := scenario.ResolveStack(a.cfg.Protocol, a.cfg.Params)
	if err != nil {
		return err
	}
	addr := scenario.Addr(a.cfg.Node)
	node, err := core.NewNode(core.Config{
		Addr:           addr,
		Net:            a.net,
		Stack:          stack,
		Bootstrap:      scenario.Addr(0),
		HeartbeatAfter: time.Duration(a.cfg.HeartbeatAfterNs),
		FailAfter:      time.Duration(a.cfg.FailAfterNs),
	})
	if err != nil {
		a.net.Close()
		return err
	}
	a.node = node
	a.startObs()
	// Stream the node's life back to the controller: deliveries and
	// forwards keyed by workload op id, plus state transitions and failure
	// verdicts for the per-node event trace.
	node.RegisterHandlers(core.Handlers{
		Deliver: func(payload []byte, typ int32, src overlay.Address) {
			a.event(&Event{Kind: EvDeliver, Op: int(typ), AtUnixNano: time.Now().UnixNano()})
			a.obsEvent(uint64(uint32(typ)), obs.LevelDebug, "deliver",
				obs.F("op", typ), obs.F("src", src))
		},
		Forward: func(payload []byte, typ int32, next overlay.Address, nextKey overlay.Key) bool {
			a.event(&Event{Kind: EvForward, Op: int(typ), AtUnixNano: time.Now().UnixNano(),
				Next: uint32(next)})
			a.obsEvent(uint64(uint32(typ)), obs.LevelDebug, "forward",
				obs.F("op", typ), obs.F("next", next))
			return true
		},
		StateChange: func(proto string, from, to core.State) {
			a.event(&Event{Kind: EvState, AtUnixNano: time.Now().UnixNano(),
				Proto: proto, From: string(from), State: string(to)})
			a.obsEvent(uint64(addr), obs.LevelInfo, "state",
				obs.F("proto", proto), obs.F("from", from), obs.F("to", to))
		},
		Failure: func(proto string, peer overlay.Address) {
			a.event(&Event{Kind: EvFail, AtUnixNano: time.Now().UnixNano(),
				Proto: proto, Peer: uint32(peer)})
			a.obsEvent(uint64(addr), obs.LevelWarn, "failure",
				obs.F("proto", proto), obs.F("peer", peer))
		},
	})
	if a.cfg.HasGroup {
		if a.cfg.Node == 0 {
			_ = node.CreateGroup(overlay.Key(a.cfg.Group))
		} else {
			_ = node.Join(overlay.Key(a.cfg.Group))
		}
	}
	return nil
}

func (a *agent) stop() {
	if a.node != nil {
		a.node.Stop()
	}
	if a.net != nil {
		a.net.Close()
	}
	if a.httpLn != nil {
		_ = a.httpLn.Close()
	}
}

// startObs builds the agent's observability plane: a registry of live
// collectors over the engine and socket counters (the same family names
// the emulated engine's exposition uses, so a fleet-wide sum is directly
// comparable to a sim run), the sampled event log, and — when configured —
// the /metrics + /debug/obs HTTP listener.
func (a *agent) startObs() {
	a.started = time.Now()
	reg := obs.NewRegistry()
	engine := func(pick func(core.Counters) uint64) func() float64 {
		return func() float64 { return float64(pick(a.node.Counters())) }
	}
	sock := func(pick func(livenet.Stats) uint64) func() float64 {
		return func() float64 { return float64(pick(a.net.Stats())) }
	}
	reg.CounterFunc("macedon_engine_msgs_sent_total", "Protocol messages sent by live nodes.",
		engine(func(c core.Counters) uint64 { return c.MsgsSent }))
	reg.CounterFunc("macedon_engine_msgs_recv_total", "Protocol messages received by live nodes.",
		engine(func(c core.Counters) uint64 { return c.MsgsRecv }))
	reg.CounterFunc("macedon_engine_bytes_sent_total", "Protocol bytes sent by live nodes.",
		engine(func(c core.Counters) uint64 { return c.BytesSent }))
	reg.CounterFunc("macedon_engine_bytes_recv_total", "Protocol bytes received by live nodes.",
		engine(func(c core.Counters) uint64 { return c.BytesRecv }))
	reg.CounterFunc("macedon_engine_failures_total", "Failure-detector verdicts raised.",
		engine(func(c core.Counters) uint64 { return c.Failures }))
	reg.CounterFunc("macedon_net_sent_total", "Network frames sent.",
		sock(func(s livenet.Stats) uint64 { return s.Sent }))
	reg.CounterFunc("macedon_net_delivered_total", "Network frames delivered.",
		sock(func(s livenet.Stats) uint64 { return s.Recv }))
	reg.CounterFunc("macedon_net_bytes_total", "Network payload bytes carried.",
		sock(func(s livenet.Stats) uint64 { return s.BytesSent }))
	reg.CounterFunc("macedon_net_dropped_total", "Network frames dropped (all causes).",
		sock(func(s livenet.Stats) uint64 { return s.ShapeDrops + s.LossDrops }))
	reg.GaugeFunc("macedon_uptime_seconds", "Seconds since this agent process started.",
		func() float64 { return time.Since(a.started).Seconds() })
	reg.Gauge("macedon_agent_info", "Constant 1, labeled with this agent's identity.",
		obs.L("node", strconv.Itoa(a.cfg.Node)), obs.L("proto", a.cfg.Protocol)).Set(1)
	a.reg = reg

	// The event log samples by wall-clock token bucket (unlike the sim's
	// deterministic key hash — live time is not replayable anyway) and keeps
	// a ring for /debug/obs. With Obs on, admitted lines additionally stream
	// to the controller as EvObs frames.
	a.events = obs.NewEventLog(&obs.TokenBucket{Rate: 50, Burst: 100}, obs.LevelDebug)
	a.events.SetCap(256)
	if a.cfg.Obs {
		a.events.SetWriter(obsLineWriter{a})
	}

	if a.cfg.MetricsPort > 0 {
		host := a.cfg.MetricsHost
		if host == "" {
			host = "127.0.0.1"
		}
		ln, err := net.Listen("tcp", net.JoinHostPort(host, strconv.Itoa(a.cfg.MetricsPort)))
		if err != nil {
			fmt.Fprintf(a.logw, "agent %d: metrics listener: %v\n", a.cfg.Node, err)
			return
		}
		a.httpLn = ln
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			io.WriteString(w, a.reg.Text())
		})
		mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{
				"node":           a.cfg.Node,
				"pid":            os.Getpid(),
				"addr":           uint32(scenario.Addr(a.cfg.Node)),
				"protocol":       a.cfg.Protocol,
				"uptime_seconds": time.Since(a.started).Seconds(),
				"events":         a.events.Lines(),
				"events_evicted": a.events.Dropped(),
			})
		})
		go func() { _ = http.Serve(ln, mux) }()
	}
}

// obsEvent records one structured event at this agent's uptime-relative
// timestamp (nil-safe: the log exists once start ran).
func (a *agent) obsEvent(key uint64, lvl obs.Level, name string, fields ...obs.Field) {
	if a.events == nil {
		return
	}
	a.events.EmitAt(time.Since(a.started), key, lvl, name, fields...)
}

// obsLineWriter tees admitted event-log lines to the controller as EvObs
// frames; the event log hands it one rendered line per Write.
type obsLineWriter struct{ a *agent }

func (w obsLineWriter) Write(p []byte) (int, error) {
	w.a.event(&Event{Kind: EvObs, AtUnixNano: time.Now().UnixNano(),
		Line: strings.TrimRight(string(p), "\n")})
	return len(p), nil
}

// serve is the command loop. It returns nil on quit and the read error
// when the control connection drops.
func (a *agent) serve() error {
	for {
		m, err := a.conn.Recv()
		if err != nil {
			return fmt.Errorf("deploy agent: control connection lost: %w", err)
		}
		switch m.Kind {
		case KindOp:
			a.runOp(m.Op)
		case KindShape:
			a.applyShape(m.Shape)
		case KindPoll:
			reply := &Msg{Kind: KindMetrics, Metrics: a.metrics()}
			if m.PollState {
				// Extract runs on the node's dispatch queue (core.Node.Exec),
				// so the routing-state read is as consistent as the sim
				// engine's barrier-time extraction.
				st := check.Extract(a.node, a.cfg.Node)
				reply.State = &st
			}
			if a.cfg.Obs {
				// The page and the counters above are read back to back, so
				// the fleet exposition matches the totals the report shows.
				reply.Metrics.Expo = a.reg.Text()
			}
			_ = a.conn.Send(reply)
		case KindQuit:
			fmt.Fprintf(a.logw, "agent %d: quit\n", a.cfg.Node)
			return nil
		default:
			fmt.Fprintf(a.logw, "agent %d: unknown control message %q\n", a.cfg.Node, m.Kind)
		}
	}
}

func (a *agent) runOp(op *OpCmd) {
	if op == nil {
		return
	}
	switch op.Kind {
	case "lookup":
		_ = a.node.Route(overlay.Key(op.Key), make([]byte, op.Size), int32(op.ID), overlay.PriorityDefault)
	case "multicast":
		_ = a.node.Multicast(overlay.Key(a.cfg.Group), make([]byte, op.Size), int32(op.ID), overlay.PriorityDefault)
	default:
		fmt.Fprintf(a.logw, "agent %d: unknown op kind %q\n", a.cfg.Node, op.Kind)
	}
}

// applyShape replaces the network's whole shaping state with the command's.
func (a *agent) applyShape(s *ShapeCmd) {
	a.net.ClearShaping()
	if s == nil {
		return
	}
	for _, r := range s.Rules {
		a.net.SetPeerShaping(overlay.Address(r.Peer), livenet.Shaping{
			Drop: r.Drop, Loss: r.Loss, Delay: time.Duration(r.DelayNs),
		})
	}
	if d := s.Default; d != nil {
		a.net.SetDefaultShaping(&livenet.Shaping{Drop: d.Drop, Loss: d.Loss, Delay: time.Duration(d.DelayNs)})
	}
}

// metrics snapshots the node's engine counters and the socket counters.
// Instance counters take their own read locks, so sampling from the
// control goroutine is safe while the node dispatches.
func (a *agent) metrics() *Metrics {
	c := a.node.Counters()
	s := a.net.Stats()
	return &Metrics{
		MsgsSent: c.MsgsSent, MsgsRecv: c.MsgsRecv,
		BytesSent: c.BytesSent, BytesRecv: c.BytesRecv,
		Failures: c.Failures,
		NetSent:  s.Sent, NetRecv: s.Recv,
		NetBytesSent: s.BytesSent, NetBytesRecv: s.BytesRecv,
		ShapeDrops: s.ShapeDrops, LossDrops: s.LossDrops,
	}
}

// event streams one event; send failures are ignored (the controller may
// be tearing the run down while deliveries still fire).
func (a *agent) event(ev *Event) {
	_ = a.conn.Send(&Msg{Kind: KindEvent, Event: ev})
}
