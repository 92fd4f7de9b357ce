// Behavioral validation of the generated RandTree agent: the DSL → codegen
// → engine path produces a working overlay, the end-to-end claim of §3.2.
package randtree_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/randtree"
)

func build(t *testing.T, n int, settle time.Duration) *harness.Cluster {
	t.Helper()
	return buildStack(t, harness.ClusterConfig{Nodes: n, Routers: 100, Seed: 151},
		[]core.Factory{randtree.New()}, settle)
}

func buildStack(t *testing.T, cfg harness.ClusterConfig, stack []core.Factory, settle time.Duration) *harness.Cluster {
	t.Helper()
	c, err := harness.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SpawnAll(func(int) []core.Factory { return stack }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(settle)
	return c
}

func parentOf(c *harness.Cluster, a overlay.Address) overlay.Address {
	ps := c.Nodes[a].Instance("randtree").NeighborsSnapshot("parent")
	if len(ps) == 0 {
		return overlay.NilAddress
	}
	return ps[0]
}

// depth counts the parent hops from a to the root, or returns -1 when the
// chain breaks or runs longer than the population.
func depth(c *harness.Cluster, a overlay.Address) int {
	hops := 0
	for cur := a; cur != c.Addrs[0]; hops++ {
		if hops > len(c.Addrs) {
			return -1
		}
		if cur = parentOf(c, cur); cur == overlay.NilAddress {
			return -1
		}
	}
	return hops
}

func TestGeneratedTreeForms(t *testing.T) {
	const n = 20
	c := build(t, n, 60*time.Second)
	for _, a := range c.Addrs[1:] {
		if st := c.Nodes[a].Instance("randtree").State(); st != "joined" {
			t.Fatalf("generated node %v state %q", a, st)
		}
		if depth(c, a) < 0 {
			t.Fatalf("parent chain from %v broken", a)
		}
	}
	// Generated degree bound (MAX_KIDS = 4 from the spec's constants).
	for _, a := range c.Addrs {
		if kids := c.Nodes[a].Instance("randtree").NeighborsSnapshot("kids"); len(kids) > 4 {
			t.Fatalf("node %v exceeds generated degree bound: %d", a, len(kids))
		}
	}
}

func TestGeneratedMulticastAndCollect(t *testing.T) {
	const n = 15
	c := build(t, n, 60*time.Second)
	got := map[overlay.Address]int{}
	for _, a := range c.Addrs[1:] {
		addr := a
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, src overlay.Address) { got[addr]++ },
		})
	}
	const packets = 5
	for i := 0; i < packets; i++ {
		_ = c.Nodes[c.Addrs[0]].Multicast(0, []byte("generated"), 3, overlay.PriorityDefault)
		c.RunFor(time.Second)
	}
	c.RunFor(10 * time.Second)
	for _, a := range c.Addrs[1:] {
		if got[a] != packets {
			t.Errorf("node %v received %d/%d", a, got[a], packets)
		}
	}
	// Collect flows to the root.
	collected := 0
	c.Nodes[c.Addrs[0]].RegisterHandlers(core.Handlers{
		Deliver: func([]byte, int32, overlay.Address) { collected++ },
	})
	for _, a := range c.Addrs[1:] {
		_ = c.Nodes[a].Collect(0, []byte("up"), 2, overlay.PriorityDefault)
	}
	c.RunFor(10 * time.Second)
	if collected != n-1 {
		t.Fatalf("root collected %d/%d", collected, n-1)
	}
}

// TestForwardedFrameKeepsSourceFields: an interior node builds the frame it
// forwards from fields of the frame it received, both living in the agent's
// message scratch, and delivers the received one afterwards. Across a tree at
// least three levels deep, with several 1000-byte payloads in flight at once,
// every node below the root must see every payload intact, in order, and
// attributed to the root — what a slot shared between the two directions, or
// reused before its transition was done, would corrupt.
func TestForwardedFrameKeepsSourceFields(t *testing.T) {
	const n, packets, size = 15, 8, 1000
	c := build(t, n, 60*time.Second)
	defer c.StopAll()
	root := c.Addrs[0]
	deepest := 0
	for _, a := range c.Addrs[1:] {
		deepest = max(deepest, depth(c, a))
	}
	if deepest < 2 {
		t.Fatalf("tree is %d levels below the root: nothing is forwarded twice", deepest)
	}
	payload := func(i int) []byte {
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i*31 + j*7 + j/256)
		}
		return p
	}
	got := map[overlay.Address]int{}
	for _, a := range c.Addrs[1:] {
		addr := a
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, src overlay.Address) {
				i := got[addr]
				got[addr]++
				if src != root || typ != int32(100+i) || !bytes.Equal(p, payload(i)) {
					t.Errorf("node %v, packet %d: src %v typ %d, payload intact: %v", addr, i, src, typ, bytes.Equal(p, payload(i)))
				}
			},
		})
	}
	for i := 0; i < packets; i++ {
		_ = c.Nodes[root].Multicast(0, payload(i), int32(100+i), overlay.PriorityDefault)
	}
	c.RunFor(20 * time.Second)
	for _, a := range c.Addrs[1:] {
		if got[a] != packets {
			t.Errorf("node %v received %d/%d", a, got[a], packets)
		}
	}
}

func TestGeneratedParentFailureRejoin(t *testing.T) {
	c := buildStack(t, harness.ClusterConfig{
		Nodes: 12, Routers: 100, Seed: 73,
		HeartbeatAfter: 2 * time.Second, FailAfter: 6 * time.Second,
	}, []core.Factory{randtree.New()}, 60*time.Second)
	// Kill an interior node (one with children).
	var victim overlay.Address
	for _, a := range c.Addrs[1:] {
		if len(c.Nodes[a].Instance("randtree").NeighborsSnapshot("kids")) > 0 {
			victim = a
			break
		}
	}
	if victim == overlay.NilAddress {
		t.Skip("no interior non-root node in this seed")
	}
	_ = c.Net.SetDown(victim, true)
	c.Nodes[victim].Stop()
	c.RunFor(120 * time.Second)
	root := c.Addrs[0]
	for _, a := range c.Addrs[1:] {
		if a == victim {
			continue
		}
		hops := 0
		for cur := a; cur != root; hops++ {
			if hops > 20 {
				t.Fatalf("node %v not reattached after parent failure", a)
			}
			cur = parentOf(c, cur)
			if cur == overlay.NilAddress || cur == victim {
				t.Fatalf("node %v has broken chain (cur=%v)", a, cur)
			}
		}
	}
}

// stamp is the collect message of stamper, the layer above RandTree in
// TestCollectCarriesForwardRewrite.
type stamp struct{ Text string }

func (m *stamp) MsgName() string                { return "stamp" }
func (m *stamp) Encode(w *overlay.Writer)       { w.String16(m.Text) }
func (m *stamp) Decode(r *overlay.Reader) error { m.Text = r.String16(); return r.Err() }

// stamper turns an application collect into a stamp, appends "+" to every
// stamp its forward handler sees, and records the stamps delivered to it.
type stamper struct{ got []string }

func (s *stamper) ProtocolName() string { return "stamper" }

func (s *stamper) Define(d *core.Def) {
	d.States("up")
	d.Addressing(core.IPAddressing)
	d.Message("stamp", func() overlay.Message { return &stamp{} }, "")
	d.OnAPI(overlay.APIInit, core.Any, core.Write, func(ctx *core.Context, call *core.APICall) {
		ctx.StateChange("up")
	})
	d.OnAPI(overlay.APICollect, core.Any, core.Read, func(ctx *core.Context, call *core.APICall) {
		frame, err := ctx.EncodeFrame(&stamp{Text: string(call.Payload)})
		if err == nil {
			_ = ctx.Collect(call.Group, frame, core.ProtocolPayload, call.Priority)
		}
	})
	d.OnForward("stamp", core.Any, core.Write, func(ctx *core.Context, ev *core.MsgEvent) {
		ev.Msg.(*stamp).Text += "+"
	})
	d.OnRecv("stamp", core.Any, core.Write, func(ctx *core.Context, ev *core.MsgEvent) {
		s.got = append(s.got, ev.Msg.(*stamp).Text)
	})
}

// TestCollectCarriesForwardRewrite: a collect climbing the generated tree is
// offered to the layer above at every hop it reaches, root included, and
// what travels on is the payload that layer returned, not the one it was
// offered. So the stamp a node at depth d collects reaches the root with d
// marks, the way Bullet's RanSub candidates accumulate on their way up.
func TestCollectCarriesForwardRewrite(t *testing.T) {
	c := buildStack(t, harness.ClusterConfig{Nodes: 15, Routers: 100, Seed: 151},
		[]core.Factory{randtree.New(), func() core.Agent { return &stamper{} }}, 60*time.Second)
	defer c.StopAll()
	want := map[string]bool{}
	deepest := 0
	for i, a := range c.Addrs[1:] {
		d := depth(c, a)
		if d < 1 {
			t.Fatalf("node %v is not in the tree", a)
		}
		deepest = max(deepest, d)
		text := fmt.Sprintf("n%d", i+1)
		want[text+strings.Repeat("+", d)] = true
		_ = c.Nodes[a].Collect(0, []byte(text), 0, overlay.PriorityDefault)
	}
	if deepest < 2 {
		t.Fatalf("tree is %d levels below the root: no collect is forwarded twice", deepest)
	}
	c.RunFor(10 * time.Second)
	root := c.Nodes[c.Addrs[0]].Instance("stamper").Agent().(*stamper)
	if len(root.got) != len(want) {
		t.Fatalf("root received %d stamps, want %d: %v", len(root.got), len(want), root.got)
	}
	for _, got := range root.got {
		if !want[got] {
			t.Errorf("root received stamp %q, which is no node's name marked once per hop", got)
		}
	}
}
