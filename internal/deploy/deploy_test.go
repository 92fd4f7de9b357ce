package deploy

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"macedon/internal/overlays/chord"
	"macedon/internal/scenario"
)

// TestConnRoundTrip frames messages over a real TCP pair.
func TestConnRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan *Msg, 2)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		conn := NewConn(c)
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			done <- m
		}
	}()
	tc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(tc)
	defer conn.Close()
	if err := conn.Send(&Msg{Kind: KindHello, Hello: &Hello{Node: 7, Pid: 1234}}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&Msg{Kind: KindOp, Op: &OpCmd{ID: 42, Kind: "lookup", Key: 0xdeadbeef, Size: 64}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case m := <-done:
			switch m.Kind {
			case KindHello:
				if m.Hello == nil || m.Hello.Node != 7 {
					t.Fatalf("hello mangled: %+v", m)
				}
			case KindOp:
				if m.Op == nil || m.Op.ID != 42 || m.Op.Key != 0xdeadbeef {
					t.Fatalf("op mangled: %+v", m.Op)
				}
			default:
				t.Fatalf("unexpected kind %q", m.Kind)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("frame never arrived")
		}
	}
}

// TestPollKeepsRepliesPastAStalledAgent: three slots over in-memory conns,
// slot 0 reads its poll and never answers. The round must end at the
// deadline with slots 1 and 2 holding the metrics they sent, and the trace
// must name node 0.
func TestPollKeepsRepliesPastAStalledAgent(t *testing.T) {
	defer func(d time.Duration) { pollTimeout = d }(pollTimeout)
	pollTimeout = 100 * time.Millisecond

	s := &scenario.Scenario{
		Name: "poll", Seed: 1, Nodes: 3, Routers: 30, Protocol: "chord",
		Phases: []scenario.Phase{{Name: "only", Duration: scenario.Duration(time.Second)}},
	}
	sched, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	c := &controller{s: s, sched: sched, start: time.Now(), cfg: Config{Speed: 1}}
	if c.eng, err = scenario.NewEngine(sched, c, scenario.EngineConfig{Echo: &trace}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Nodes; i++ {
		ctl, agent := net.Pipe()
		slot := &agentSlot{conn: NewConn(ctl), pollCh: make(chan *Metrics, 1)}
		c.agents = append(c.agents, slot)
		t.Cleanup(func() { ctl.Close(); agent.Close() })
		go c.reader(i, 0, slot.conn)
		go func(i int, conn *Conn) {
			for {
				m, err := conn.Recv()
				if err != nil {
					return
				}
				if m.Kind == KindPoll && i != 0 {
					_ = conn.Send(&Msg{Kind: KindMetrics, Metrics: &Metrics{MsgsSent: uint64(100 + i)}})
				}
			}
		}(i, NewConn(agent))
	}

	c.poll(false)

	if c.agents[0].hasStats {
		t.Error("slot 0 never answered but holds metrics")
	}
	for i := 1; i < s.Nodes; i++ {
		if slot := c.agents[i]; !slot.hasStats || slot.metrics.MsgsSent != uint64(100+i) {
			t.Errorf("slot %d lost its reply: hasStats=%v metrics=%+v", i, slot.hasStats, slot.metrics)
		}
	}
	if got := trace.String(); !strings.Contains(got, "poll: node 0 did not answer in 100ms") ||
		strings.Contains(got, "node 1") || strings.Contains(got, "node 2") {
		t.Errorf("trace should name node 0 and only node 0:\n%s", got)
	}
}

// TestAgentConfigCarriesParams: the controller puts the scenario's params in
// every agent's config, they survive the control protocol's JSON, and the
// stack an agent builds from its config sets them on every agent it makes.
func TestAgentConfigCarriesParams(t *testing.T) {
	s := &scenario.Scenario{
		Name: "params", Seed: 3, Nodes: 3, Protocol: "chord",
		Params: map[string]int{"fix_ms": 20000, "fix_adaptive": 1},
		Phases: []scenario.Phase{{Name: "p", Duration: scenario.Duration(time.Second)}},
	}
	sched, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	c := &controller{s: s, sched: sched,
		degLoss: make([]float64, s.Nodes), degDelay: make([]time.Duration, s.Nodes)}
	if c.eng, err = scenario.NewEngine(sched, c, scenario.EngineConfig{}); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(c.agentConfigLocked(1))
	if err != nil {
		t.Fatal(err)
	}
	var ac AgentConfig
	if err := json.Unmarshal(b, &ac); err != nil {
		t.Fatal(err)
	}
	stack, err := scenario.ResolveStack(ac.Protocol, ac.Params)
	if err != nil {
		t.Fatal(err)
	}
	ag, ok := stack[0]().(*chord.Agent)
	if !ok || ag.FixMs != 20000 || ag.FixAdaptive != 1 {
		t.Fatalf("agent config %s builds %+v, want fix_ms 20000 and fix_adaptive 1", b, ag)
	}
}

// TestRunRejectsSites: the site matrix exists only in the emulator, so a
// live run of a scenario with sites fails before any agent starts.
func TestRunRejectsSites(t *testing.T) {
	s, err := scenario.Parse([]byte(`{"name":"sites","nodes":4,"sites":2,"protocol":"nice","phases":[{"duration":"1s"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Scenario: s, AgentCmd: []string{"/nonexistent-agent"}})
	if err == nil || !strings.Contains(err.Error(), "sites") {
		t.Fatalf("Run of a sites scenario: %v, want a sites error", err)
	}
}
