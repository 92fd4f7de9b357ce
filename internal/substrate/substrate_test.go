package substrate_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"macedon/internal/livenet"
	"macedon/internal/overlay"
	"macedon/internal/simnet"
	"macedon/internal/substrate"
	"macedon/internal/topology"
)

// Both backends must satisfy the substrate contract at compile time: the
// emulator's global and shard-bound networks, and the live-deployment one.
var (
	_ substrate.Network = (*simnet.Network)(nil)
	_ substrate.Network = (*simnet.NodeSubstrate)(nil)
	_ substrate.Network = (*livenet.Network)(nil)
)

// contractNet builds a two-client emulated topology and returns it as a
// bare substrate.Network, so every assertion below goes through the
// interface the engine actually programs against.
func contractNet(t *testing.T) (substrate.Network, *simnet.Scheduler) {
	t.Helper()
	g := topology.NewGraph()
	r := g.AddRouter()
	r2 := g.AddRouter()
	g.AddLink(r, r2, 5*time.Millisecond, 1_000_000, 10*1500)
	g.AttachClient(1, r, topology.DefaultAccess)
	g.AttachClient(2, r2, topology.DefaultAccess)
	s := simnet.NewScheduler(7)
	return simnet.New(s, g, simnet.Config{}), s
}

func TestEndpointRoundTrip(t *testing.T) {
	n, s := contractNet(t)
	e1, err := n.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := n.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Addr() != 1 || e2.Addr() != 2 {
		t.Fatalf("Addr() = %v, %v", e1.Addr(), e2.Addr())
	}
	var gotSrc overlay.Address
	var gotPayload []byte
	e2.SetRecv(func(src overlay.Address, p []byte) {
		gotSrc = src
		gotPayload = append([]byte(nil), p...)
	})
	if err := e1.Send(2, []byte("datagram")); err != nil {
		t.Fatal(err)
	}
	s.RunUntilIdle()
	if gotSrc != 1 || string(gotPayload) != "datagram" {
		t.Fatalf("received src=%v payload=%q", gotSrc, gotPayload)
	}
}

func TestEndpointRejectsOversizedDatagram(t *testing.T) {
	n, _ := contractNet(t)
	e1, err := n.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if e1.MTU() <= 0 {
		t.Fatalf("MTU() = %d, want positive", e1.MTU())
	}
	if err := e1.Send(2, make([]byte, e1.MTU()+1)); err == nil {
		t.Fatal("Send accepted a datagram larger than MTU")
	}
	if err := e1.Send(2, make([]byte, e1.MTU())); err != nil {
		t.Fatalf("Send rejected an MTU-sized datagram: %v", err)
	}
}

func TestEndpointUnknownAddress(t *testing.T) {
	n, _ := contractNet(t)
	if _, err := n.Endpoint(99); err == nil {
		t.Fatal("Endpoint(99) succeeded for an unattached address")
	}
}

func TestClockAfterOrderingAndStop(t *testing.T) {
	n, s := contractNet(t)
	var fired []int
	n.After(20*time.Millisecond, func() { fired = append(fired, 2) })
	n.After(10*time.Millisecond, func() { fired = append(fired, 1) })
	canceled := n.After(15*time.Millisecond, func() { fired = append(fired, 99) })
	if !canceled.Stop() {
		t.Fatal("Stop() on a pending timer reported already-fired")
	}
	if canceled.Stop() {
		t.Fatal("second Stop() reported the callback still pending")
	}
	s.RunUntilIdle()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2]", fired)
	}

	t.Run("Reset/simnet", func(t *testing.T) {
		n, s := contractNet(t)
		clockReset(t, n, time.Millisecond, func(done func() bool) {
			for !done() && s.Step() {
			}
		})
	})
	t.Run("Reset/simnet node", func(t *testing.T) {
		n, s := contractNet(t)
		sub, err := n.(*simnet.Network).NodeNet(1)
		if err != nil {
			t.Fatal(err)
		}
		clockReset(t, sub, time.Millisecond, func(done func() bool) {
			for !done() && s.Step() {
			}
		})
	})
	t.Run("Reset/livenet", func(t *testing.T) {
		clockReset(t, livenet.New("127.0.0.1", 0), 10*time.Millisecond, func(done func() bool) {
			for deadline := time.Now().Add(5 * time.Second); !done() && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		})
	})
}

// clockReset holds a clock to Reset's contract on a pending timer (it moves),
// a fired one (it runs again) and a stopped one (it comes back), at time unit
// u with at least 2u between any two deadlines. until(done) lets the clock run
// until done reports true.
func clockReset(t *testing.T, c substrate.Clock, u time.Duration, until func(done func() bool)) {
	t.Helper()
	var mu sync.Mutex // livenet runs callbacks on timer goroutines
	var log []string
	note := func(name string) func() {
		return func() {
			mu.Lock()
			log = append(log, name)
			mu.Unlock()
		}
	}
	seen := func() string {
		mu.Lock()
		defer mu.Unlock()
		return strings.Join(log, " ")
	}
	moved := c.After(2*u, note("moved"))
	fired := c.After(u, note("fired"))
	stopped := c.After(u, note("stopped"))
	stopped.Stop()
	moved.Reset(8 * u)
	until(func() bool { return seen() != "" })
	if got := seen(); got != "fired" {
		t.Fatalf("after the first deadline: %q, want only the unmoved timer to have fired", got)
	}
	if fired.Stop() {
		t.Fatal("Stop on a fired timer reported it pending")
	}
	fired.Reset(2 * u)   // fired: runs again
	stopped.Reset(4 * u) // stopped: comes back
	until(func() bool { return strings.Count(seen(), " ") == 3 })
	if got := seen(); got != "fired fired stopped moved" {
		t.Fatalf("fires = %q, want %q", got, "fired fired stopped moved")
	}
	if moved.Stop() || fired.Stop() || stopped.Stop() {
		t.Fatal("Stop after every timer fired reported one pending")
	}
}

func TestClockNowAdvancesWithVirtualTime(t *testing.T) {
	n, s := contractNet(t)
	start := n.Now()
	var at time.Time
	n.After(42*time.Millisecond, func() { at = n.Now() })
	s.RunUntilIdle()
	if got := at.Sub(start); got != 42*time.Millisecond {
		t.Fatalf("callback observed Now() %v after start, want 42ms", got)
	}
}
