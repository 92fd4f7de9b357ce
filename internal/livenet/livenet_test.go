package livenet_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/livenet"
	"macedon/internal/overlay"
	"macedon/internal/overlays/chord"
	"macedon/internal/substrate"
)

// TestLiveChordRing runs real Chord nodes, generated from specs/chord.mac,
// over real UDP sockets on localhost: the "same generated code runs live"
// claim, in miniature.
func TestLiveChordRing(t *testing.T) {
	net := livenet.New("127.0.0.1", 38850)
	defer net.Close()
	stack := []core.Factory{func() core.Agent { return &chord.Agent{FixMs: 200} }}
	const n = 5
	var nodes []*core.Node
	for i := 1; i <= n; i++ {
		node, err := core.NewNode(core.Config{
			Addr:      overlay.Address(i),
			Net:       net,
			Stack:     stack,
			Bootstrap: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		defer node.Stop()
	}

	deadline := time.After(20 * time.Second)
	for {
		joined := 0
		for _, nd := range nodes {
			// Protocol state is owned by the node's event queue; sample it
			// through Exec so the poll is serialized with live dispatch.
			nd.Exec(func() {
				if nd.Instance("chord").State() == "joined" {
					joined++
				}
			})
		}
		if joined == n {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d/%d joined over live UDP", joined, n)
		case <-time.After(100 * time.Millisecond):
		}
	}

	// Route a payload over real sockets and watch it arrive somewhere.
	done := make(chan overlay.Address, n)
	for _, nd := range nodes {
		nd := nd
		addr := nd.Addr()
		nd.Exec(func() {
			nd.RegisterHandlers(core.Handlers{
				Deliver: func(p []byte, typ int32, src overlay.Address) {
					select {
					case done <- addr:
					default:
					}
				},
			})
		})
	}
	time.Sleep(2 * time.Second) // let stabilization settle
	if err := nodes[2].Route(overlay.Key(0x42424242), []byte("live"), 1, overlay.PriorityDefault); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("routed payload never delivered over live UDP")
	}
}

// pair binds two endpoints on the given network and wires b's receive
// callback into a channel.
func pair(t *testing.T, net *livenet.Network, a, b overlay.Address) (substrate.Endpoint, substrate.Endpoint, chan []byte) {
	t.Helper()
	epA, err := net.Endpoint(a)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Endpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 256)
	epB.SetRecv(func(src overlay.Address, payload []byte) {
		if src != a {
			t.Errorf("src = %v, want %v", src, a)
		}
		got <- bytes.Clone(payload) // lent: valid only until the callback returns
	})
	return epA, epB, got
}

func recvCount(got chan []byte, wait time.Duration) int {
	deadline := time.After(wait)
	n := 0
	for {
		select {
		case <-got:
			n++
		case <-deadline:
			return n
		}
	}
}

// TestShapingDrop: a Drop rule blackholes traffic toward the peer; clearing
// it restores delivery.
func TestShapingDrop(t *testing.T) {
	net := livenet.New("127.0.0.1", 39100)
	defer net.Close()
	epA, _, got := pair(t, net, 1, 2)

	net.SetPeerShaping(2, livenet.Shaping{Drop: true})
	for i := 0; i < 5; i++ {
		if err := epA.Send(2, []byte("dropped")); err != nil {
			t.Fatalf("shaped send must not error: %v", err)
		}
	}
	if n := recvCount(got, 300*time.Millisecond); n != 0 {
		t.Fatalf("partitioned peer received %d datagrams", n)
	}
	if s := net.Stats(); s.ShapeDrops != 5 {
		t.Fatalf("ShapeDrops = %d, want 5", s.ShapeDrops)
	}

	net.SetPeerShaping(2, livenet.Shaping{}) // zero rule removes
	if err := epA.Send(2, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if n := recvCount(got, 2*time.Second); n != 1 {
		t.Fatalf("after heal received %d datagrams, want 1", n)
	}
}

// TestShapingLoss: a 100% loss rule behaves like drop but counts separately;
// a 0-loss rule passes everything.
func TestShapingLoss(t *testing.T) {
	net := livenet.New("127.0.0.1", 39110)
	defer net.Close()
	epA, _, got := pair(t, net, 1, 2)

	net.SetPeerShaping(2, livenet.Shaping{Loss: 1.0})
	for i := 0; i < 10; i++ {
		if err := epA.Send(2, []byte("lost")); err != nil {
			t.Fatal(err)
		}
	}
	if n := recvCount(got, 300*time.Millisecond); n != 0 {
		t.Fatalf("full loss delivered %d datagrams", n)
	}
	if s := net.Stats(); s.LossDrops != 10 {
		t.Fatalf("LossDrops = %d, want 10", s.LossDrops)
	}
}

// TestShapingDelay: added latency arrives, later than the rule's delay.
func TestShapingDelay(t *testing.T) {
	net := livenet.New("127.0.0.1", 39120)
	defer net.Close()
	epA, _, got := pair(t, net, 1, 2)

	const delay = 300 * time.Millisecond
	net.SetPeerShaping(2, livenet.Shaping{Delay: delay})
	start := time.Now()
	if err := epA.Send(2, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		if el := time.Since(start); el < delay {
			t.Fatalf("delayed datagram arrived after %v, want >= %v", el, delay)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delayed datagram never arrived")
	}
}

// TestDefaultShaping: a default Drop rule silences every peer without an
// explicit rule — the live node_down.
func TestDefaultShaping(t *testing.T) {
	net := livenet.New("127.0.0.1", 39130)
	defer net.Close()
	epA, _, got2 := pair(t, net, 1, 2)
	ep3, err := net.Endpoint(3)
	if err != nil {
		t.Fatal(err)
	}
	got3 := make(chan []byte, 16)
	ep3.SetRecv(func(src overlay.Address, payload []byte) { got3 <- payload })

	net.SetDefaultShaping(&livenet.Shaping{Drop: true})
	net.SetPeerShaping(3, livenet.Shaping{Delay: time.Millisecond}) // explicit rule wins over default
	_ = epA.Send(2, []byte("x"))
	_ = epA.Send(3, []byte("y"))
	if n := recvCount(got2, 300*time.Millisecond); n != 0 {
		t.Fatalf("default drop delivered %d", n)
	}
	if n := recvCount(got3, 2*time.Second); n != 1 {
		t.Fatalf("explicit rule peer received %d, want 1", n)
	}
	net.SetDefaultShaping(nil)
	_ = epA.Send(2, []byte("x"))
	if n := recvCount(got2, 2*time.Second); n != 1 {
		t.Fatalf("after clearing default received %d, want 1", n)
	}
}

// TestMTUEnforcement: oversize datagrams are rejected before hitting the
// socket; MTU-sized ones pass.
func TestMTUEnforcement(t *testing.T) {
	net := livenet.New("127.0.0.1", 39140)
	defer net.Close()
	epA, _, got := pair(t, net, 1, 2)

	if err := epA.Send(2, make([]byte, livenet.MTU+1)); err == nil {
		t.Fatal("oversize datagram accepted")
	} else if !strings.Contains(err.Error(), "MTU") {
		t.Fatalf("oversize error %q does not mention MTU", err)
	}
	if err := epA.Send(2, make([]byte, livenet.MTU)); err != nil {
		t.Fatalf("MTU-sized datagram rejected: %v", err)
	}
	select {
	case p := <-got:
		if len(p) != livenet.MTU {
			t.Fatalf("received %d bytes, want %d", len(p), livenet.MTU)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MTU-sized datagram never arrived")
	}
}

// TestDoubleCloseIdempotent: closing the network twice is safe, and sends
// on its closed endpoints fail instead of panicking.
func TestDoubleCloseIdempotent(t *testing.T) {
	net := livenet.New("127.0.0.1", 39150)
	ep, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	net.Close()
	net.Close() // idempotent
	if err := ep.Send(2, []byte("x")); err == nil {
		t.Fatal("send on closed endpoint succeeded")
	}
	if _, err := net.Endpoint(3); err == nil {
		t.Fatal("endpoint on closed network succeeded")
	}
}

// TestRebindAfterClose: once a network closes, a fresh network binds the
// same address and port again and receives on it — the path a deploy agent
// restarted after a crash takes.
func TestRebindAfterClose(t *testing.T) {
	net := livenet.New("127.0.0.1", 39160)
	ep1, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	ep1.SetRecv(func(overlay.Address, []byte) {})
	net.Close()

	net2 := livenet.New("127.0.0.1", 39160)
	defer net2.Close()
	ep1b, err := net2.Endpoint(1)
	if err != nil {
		t.Fatalf("rebind failed: %v", err)
	}
	got := make(chan []byte, 1)
	ep1b.SetRecv(func(src overlay.Address, payload []byte) { got <- payload })
	ep2, err := net2.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep2.Send(1, []byte("back")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("rebound endpoint never received")
	}
}
