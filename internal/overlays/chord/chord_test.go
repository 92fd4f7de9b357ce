// Package chord_test holds the Chord protocol's behaviour tests, run on the
// agent generated from specs/chord.mac into this directory: ring formation,
// routing at the owner, finger convergence under both fix_fingers policies,
// successor repair and staggered joins.
package chord_test

import (
	"testing"
	"time"

	"macedon/internal/check"
	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/chord"
)

// agent returns a factory for generated Chord with the given fix_fingers
// period (0: the spec's FIX_FINGERS_MS) and policy.
func agent(fixMs, adaptive int32) core.Factory {
	return func() core.Agent { return &chord.Agent{FixMs: fixMs, FixAdaptive: adaptive} }
}

func newCluster(t *testing.T, cfg harness.ClusterConfig) *harness.Cluster {
	t.Helper()
	cfg.Routers = 100
	c, err := harness.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopAll)
	return c
}

func buildRing(t *testing.T, n int, f core.Factory, settle time.Duration) *harness.Cluster {
	t.Helper()
	c := newCluster(t, harness.ClusterConfig{Nodes: n, Seed: 42})
	if err := c.SpawnAll(func(int) []core.Factory { return []core.Factory{f} }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(settle)
	return c
}

// view is what the tests read of one node's agent, copied on the node's
// execution queue.
type view struct {
	joined     bool
	succ, pred overlay.Address
	fingers    []overlay.Address
	fixMs      int32
}

func viewOf(c *harness.Cluster, a overlay.Address) view {
	var v view
	node := c.Nodes[a]
	node.Exec(func() {
		inst := node.Instance("chord")
		ag := inst.Agent().(*chord.Agent)
		v.joined = inst.State() == "joined"
		if len(ag.Succs) > 0 {
			v.succ = ag.Succs[0]
		}
		if p := inst.NeighborsSnapshot("pred"); len(p) > 0 {
			v.pred = p[0]
		}
		v.fingers = append([]overlay.Address(nil), ag.Fingers[:]...)
		v.fixMs = ag.FixMs
	})
	return v
}

// wantSucc is a's successor on the oracle ring.
func wantSucc(o *check.ChordOracle, a overlay.Address) overlay.Address {
	return o.Successor(overlay.HashAddress(a) + 1)
}

func TestRingForms(t *testing.T) {
	const n = 16
	c := buildRing(t, n, chord.New(), 60*time.Second)
	o := check.NewChordOracle(c.Addrs)
	// Every node's successor must match the oracle ring.
	for _, a := range c.Addrs {
		v := viewOf(c, a)
		if !v.joined {
			t.Fatalf("node %v never joined", a)
		}
		if want := wantSucc(o, a); v.succ != want {
			t.Errorf("node %v successor = %v, want %v", a, v.succ, want)
		}
	}
	// Following successor pointers visits every node exactly once.
	seen := map[overlay.Address]bool{}
	cur := c.Addrs[0]
	for i := 0; i < n; i++ {
		if seen[cur] {
			t.Fatalf("successor cycle shorter than ring at %v", cur)
		}
		seen[cur] = true
		cur = viewOf(c, cur).succ
	}
	if cur != c.Addrs[0] || len(seen) != n {
		t.Fatalf("ring does not close: visited %d", len(seen))
	}
}

func TestRoutingDeliversAtOwner(t *testing.T) {
	c := buildRing(t, 12, chord.New(), 60*time.Second)
	o := check.NewChordOracle(c.Addrs)
	delivered := make(map[overlay.Address][]overlay.Key)
	for _, a := range c.Addrs {
		addr := a
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, src overlay.Address) {
				delivered[addr] = append(delivered[addr], overlay.Key(typ))
			},
		})
	}
	// Route payloads to many keys; each must arrive exactly at its owner.
	// Payload type encodes the key for verification (app types are >= 0 and
	// 31-bit here).
	keys := []overlay.Key{0, 1 << 20, 0x3fffffff, 0x7ffffffe, 0x12345678}
	src := c.Nodes[c.Addrs[3]]
	for _, k := range keys {
		if err := src.Route(k, []byte("blob"), int32(k&0x7fffffff), overlay.PriorityDefault); err != nil {
			t.Fatal(err)
		}
	}
	c.RunFor(10 * time.Second)
	got := 0
	for addr, ks := range delivered {
		for _, k := range ks {
			got++
			if want := o.Successor(k); want != addr {
				t.Errorf("key %v delivered at %v, want %v", k, addr, want)
			}
		}
	}
	if got != len(keys) {
		t.Fatalf("delivered %d/%d routed payloads", got, len(keys))
	}
}

func TestRouteIPDirect(t *testing.T) {
	c := buildRing(t, 4, chord.New(), 30*time.Second)
	var got []byte
	c.Nodes[c.Addrs[2]].RegisterHandlers(core.Handlers{
		Deliver: func(p []byte, typ int32, src overlay.Address) { got = append([]byte(nil), p...) },
	})
	_ = c.Nodes[c.Addrs[0]].RouteIP(c.Addrs[2], []byte("direct"), 9, overlay.PriorityDefault)
	c.RunFor(5 * time.Second)
	if string(got) != "direct" {
		t.Fatalf("routeIP payload = %q", got)
	}
}

// TestFingersConverge: the static policy converges the finger table, at the
// spec's default period and at one set per run through fix_ms.
func TestFingersConverge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fixMs  int32
		settle time.Duration
	}{
		{"default period", 0, 180 * time.Second},
		{"fix_ms 500", 500, 120 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := buildRing(t, 24, agent(tc.fixMs, 0), tc.settle)
			o := check.NewChordOracle(c.Addrs)
			correct, total := 0, 0
			for _, a := range c.Addrs {
				fingers := viewOf(c, a).fingers
				for _, f := range fingers {
					if f != overlay.NilAddress {
						total++
					}
				}
				correct += o.CorrectFingers(a, fingers)
			}
			if total == 0 {
				t.Fatal("no fingers populated")
			}
			if frac := float64(correct) / float64(total); frac < 0.9 {
				t.Fatalf("only %.0f%% of populated fingers correct after %v", frac*100, tc.settle)
			}
		})
	}
}

// TestDynamicFixFingersAdapts: under lsd's adaptive policy a stable ring
// confirms its fingers, so some node's period grows past FIX_MIN_MS (1 s).
func TestDynamicFixFingersAdapts(t *testing.T) {
	c := buildRing(t, 8, agent(0, 1), 120*time.Second)
	grew := false
	for _, a := range c.Addrs {
		if viewOf(c, a).fixMs > 1000 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("dynamic fix-fingers interval never backed off on a stable ring")
	}
}

func TestSuccessorFailureRepair(t *testing.T) {
	c := newCluster(t, harness.ClusterConfig{
		Nodes: 10, Seed: 7,
		HeartbeatAfter: 2 * time.Second, FailAfter: 8 * time.Second,
	})
	if err := c.SpawnAll(func(int) []core.Factory { return []core.Factory{chord.New()} }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(60 * time.Second)

	// Kill one non-bootstrap node.
	victim := c.Addrs[4]
	c.Kill(4)
	c.RunFor(90 * time.Second)

	var live []overlay.Address
	for _, a := range c.Addrs {
		if a != victim {
			live = append(live, a)
		}
	}
	o := check.NewChordOracle(live)
	for _, a := range live {
		v := viewOf(c, a)
		if want := wantSucc(o, a); v.succ != want {
			t.Errorf("after failure: node %v successor = %v, want %v", a, v.succ, want)
		}
		if v.succ == victim || v.pred == victim {
			t.Errorf("node %v still points at dead node", a)
		}
	}
}

func TestStaggeredJoins(t *testing.T) {
	c := newCluster(t, harness.ClusterConfig{Nodes: 12, Seed: 3})
	for i := range c.Addrs {
		c.SpawnAt(i, []core.Factory{chord.New()}, time.Duration(i)*2*time.Second)
	}
	c.RunFor(120 * time.Second)
	o := check.NewChordOracle(c.Addrs)
	for _, a := range c.Addrs {
		if got, want := viewOf(c, a).succ, wantSucc(o, a); got != want {
			t.Errorf("node %v successor = %v, want %v", a, got, want)
		}
	}
}
