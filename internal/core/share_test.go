package core_test

import (
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/chord"
	"macedon/internal/overlays/scribe"
)

// captureProto defines its FSM the way an agent written against the engine
// may, and the benchmark's probe does: through closures over itself. It is
// not TypeDefined.
type captureProto struct{ inits int }

func (p *captureProto) ProtocolName() string { return "capture" }

func (p *captureProto) Define(d *core.Def) {
	d.UDPTransport("U")
	d.OnAPI(overlay.APIInit, core.Any, core.Write, func(*core.Context, *core.APICall) { p.inits++ })
}

// periodProto declares a timer whose period is its own parameter, as an
// agent written against the engine may. It is not TypeDefined.
type periodProto struct{ period time.Duration }

func (p *periodProto) ProtocolName() string { return "period" }

func (p *periodProto) Define(d *core.Def) {
	d.UDPTransport("U")
	d.PeriodicTimer("epoch", p.period)
}

// TestGeneratedAgentsShareOneDef: a generated agent type's Def is built once
// and shared by every instance of it — across shards and after a revive —
// while an agent whose Define reads its receiver, a hand-written protocol's
// parameters or a captured closure, keeps a Def of its own.
func TestGeneratedAgentsShareOneDef(t *testing.T) {
	defOf := func(n *core.Node, proto string) *core.Def { return core.DefOf(n.Instance(proto)) }

	t.Run("SpawnBatch", func(t *testing.T) {
		const nodes = 64
		c, err := harness.NewCluster(harness.ClusterConfig{Nodes: nodes, Routers: 200, Seed: 31, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.StopAll)
		idx := make([]int, nodes)
		for i := range idx {
			idx[i] = i
		}
		if err := c.SpawnBatch(idx, []core.Factory{chord.New()}); err != nil {
			t.Fatal(err)
		}
		shared := defOf(c.Nodes[c.Addrs[0]], "chord")
		for _, a := range c.Addrs {
			if d := defOf(c.Nodes[a], "chord"); d != shared {
				t.Fatalf("node %v dispatches through a Def of its own", a)
			}
		}
		detached, err := core.DetachedInstance(chord.New()())
		if err != nil {
			t.Fatal(err)
		}
		if core.DefOf(detached) != shared {
			t.Fatal("a later chord instance built another Def")
		}
	})

	t.Run("HandPortParams", func(t *testing.T) {
		periods := []time.Duration{time.Second, 20 * time.Second}
		var defs []*core.Def
		for _, p := range periods {
			inst, err := core.DetachedInstance(&periodProto{period: p})
			if err != nil {
				t.Fatal(err)
			}
			defs = append(defs, core.DefOf(inst))
		}
		if defs[0] == defs[1] {
			t.Fatal("two agents with different periods share a Def")
		}
		for k, d := range defs {
			if got := d.TimerPeriod("epoch"); got != periods[k] {
				t.Errorf("an agent with period %v declares epoch every %v", periods[k], got)
			}
		}
	})

	// A generated agent's parameters are its own state, not its Def's: two
	// Scribe agents with different refresh periods share one Def.
	t.Run("GeneratedParams", func(t *testing.T) {
		var defs []*core.Def
		for _, ms := range []int32{1000, 20000} {
			a := scribe.New()()
			a.(*scribe.Agent).SetParam("refresh_ms", ms)
			inst, err := core.DetachedInstance(a)
			if err != nil {
				t.Fatal(err)
			}
			defs = append(defs, core.DefOf(inst))
		}
		if defs[0] != defs[1] {
			t.Fatal("two generated Scribe agents built a Def each")
		}
	})

	t.Run("CapturingDefine", func(t *testing.T) {
		c, err := harness.NewCluster(harness.ClusterConfig{Nodes: 2, Routers: 10, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.StopAll)
		agents := []*captureProto{{}, {}}
		var defs []*core.Def
		for i, a := range agents {
			n, err := c.Spawn(i, []core.Factory{func() core.Agent { return a }})
			if err != nil {
				t.Fatal(err)
			}
			defs = append(defs, defOf(n, "capture"))
		}
		c.RunFor(time.Second)
		if defs[0] == defs[1] {
			t.Fatal("two capturing agents share a Def")
		}
		for i, a := range agents {
			if a.inits != 1 {
				t.Errorf("agent %d ran its init transition %d times, want 1: its Def dispatches elsewhere", i, a.inits)
			}
		}
	})

	t.Run("Revive", func(t *testing.T) {
		c, err := harness.NewCluster(harness.ClusterConfig{Nodes: 3, Routers: 20, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.StopAll)
		stack := []core.Factory{chord.New()}
		if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
			t.Fatal(err)
		}
		c.RunFor(5 * time.Second)
		shared := defOf(c.Nodes[c.Addrs[0]], "chord")
		c.Kill(2)
		c.RunFor(time.Second)
		n, err := c.Revive(2, stack)
		if err != nil {
			t.Fatal(err)
		}
		if defOf(n, "chord") != shared {
			t.Fatal("the revived node built a Def of its own")
		}
	})
}
