// Conformance gates for generated protocols: the chord and pastry
// agents emitted by `macedon gen` from specs/chord.mac and specs/pastry.mac
// must pass routing-oracle correctness checks under churn — the ring (or
// leaf set) every node converges to must match a global-knowledge oracle,
// and every delivered lookup must land at the oracle owner — and the whole
// run must be byte-identical at every shard count (the same determinism
// contract the golden-trace corpus enforces for scenarios).
package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"macedon/internal/check"
	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/chord"
	"macedon/internal/overlays/pastry"
)

const (
	confNodes   = 16
	confSeed    = 2026
	confLookups = 40
)

// confChurn drives the shared schedule: staggered joins, a settle window,
// three crashes, a repair window, revives, and a final settle. It returns
// the cluster ready for oracle inspection.
func confChurn(t *testing.T, shards int, stack []core.Factory) *harness.Cluster {
	t.Helper()
	c, err := harness.NewCluster(harness.ClusterConfig{
		Nodes:          confNodes,
		Routers:        100,
		Seed:           confSeed,
		Shards:         shards,
		HeartbeatAfter: 2 * time.Second,
		FailAfter:      8 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < confNodes; i++ {
		c.SpawnAt(i, stack, time.Duration(i)*500*time.Millisecond)
	}
	c.RunFor(40 * time.Second)
	for _, i := range []int{5, 9, 13} {
		c.Kill(i)
	}
	c.RunFor(30 * time.Second)
	for _, i := range []int{5, 9, 13} {
		if _, err := c.Revive(i, stack); err != nil {
			t.Fatal(err)
		}
	}
	c.RunFor(40 * time.Second)
	return c
}

// lookupRecorder collects deliveries by op id; callbacks fire on the
// receiving node's shard, so recording is mutex-guarded.
type lookupRecorder struct {
	mu sync.Mutex
	at map[int32]overlay.Address
}

func (r *lookupRecorder) attach(c *harness.Cluster) {
	for i := 0; i < confNodes; i++ {
		addr := c.Addrs[i]
		n := c.Nodes[addr]
		self := addr
		n.RegisterHandlers(core.Handlers{
			Deliver: func(payload []byte, typ int32, src overlay.Address) {
				r.mu.Lock()
				r.at[typ] = self
				r.mu.Unlock()
			},
		})
	}
}

// confKeys derives the deterministic lookup targets.
func confKeys() []overlay.Key {
	keys := make([]overlay.Key, confLookups)
	for i := range keys {
		keys[i] = overlay.HashString(fmt.Sprintf("conformance-lookup-%d", i))
	}
	return keys
}

// runLookups issues one route per key from a rotating origin and returns
// sorted result lines plus the delivered count.
func runLookups(t *testing.T, c *harness.Cluster, owner func(overlay.Key) overlay.Address) ([]string, int) {
	t.Helper()
	rec := &lookupRecorder{at: make(map[int32]overlay.Address)}
	rec.attach(c)
	keys := confKeys()
	for i, k := range keys {
		n := c.Nodes[c.Addrs[i%confNodes]]
		if err := n.Route(k, make([]byte, 32), int32(i), overlay.PriorityDefault); err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
	}
	c.RunFor(10 * time.Second)
	var lines []string
	delivered := 0
	for i, k := range keys {
		want := owner(k)
		got, ok := rec.at[int32(i)]
		if ok {
			delivered++
			if got != want {
				t.Errorf("lookup %d (key %v): delivered at %v, oracle owner %v", i, k, got, want)
			}
		}
		lines = append(lines, fmt.Sprintf("lookup %2d key=%v owner=%v delivered=%v at=%v", i, k, want, ok, got))
	}
	sort.Strings(lines)
	return lines, delivered
}

func TestChordRoutingOracleChurn(t *testing.T) {
	var traces []string
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			stack := []core.Factory{chord.New()}
			c := confChurn(t, shards, stack)
			defer c.StopAll()

			oracle := check.NewChordOracle(c.Addrs)
			var lines []string
			for i := 0; i < confNodes; i++ {
				addr := c.Addrs[i]
				n := c.Nodes[addr]
				var succs []overlay.Address
				var fingers []overlay.Address
				n.Exec(func() {
					ag := n.Instance("chord").Agent().(*chord.Agent)
					succs = append([]overlay.Address(nil), ag.Succs...)
					fingers = append([]overlay.Address(nil), ag.Fingers[:]...)
				})
				want := oracle.Successor(overlay.HashAddress(addr) + 1)
				if len(succs) == 0 || succs[0] != want {
					t.Errorf("node %d (%v): successor = %v, oracle %v", i, addr, succs, want)
				}
				correct := oracle.CorrectFingers(addr, fingers)
				lines = append(lines, fmt.Sprintf("node %2d succ=%v fingers_ok=%d", i, succs, correct))
			}
			lookups, delivered := runLookups(t, c, func(k overlay.Key) overlay.Address {
				return oracle.Successor(k)
			})
			if delivered < confLookups*9/10 {
				t.Errorf("only %d/%d lookups delivered", delivered, confLookups)
			}
			trace := strings.Join(append(lines, lookups...), "\n")
			traces = append(traces, trace)
		})
	}
	if len(traces) == 2 && traces[0] != traces[1] {
		t.Errorf("chord conformance run differs between shard counts:\n--- shards=1\n%s\n--- shards=4\n%s", traces[0], traces[1])
	}
}

// pastryOwner is the Pastry delivery oracle: the live node numerically
// closest to the key by ring distance.
func pastryOwner(addrs []overlay.Address, k overlay.Key) overlay.Address {
	best := addrs[0]
	bestD := overlay.RingDiff(overlay.HashAddress(best), k)
	for _, a := range addrs[1:] {
		d := overlay.RingDiff(overlay.HashAddress(a), k)
		if d < bestD || (d == bestD && a < best) {
			best, bestD = a, d
		}
	}
	return best
}

func TestPastryRoutingOracleChurn(t *testing.T) {
	var traces []string
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			stack := []core.Factory{pastry.New()}
			c := confChurn(t, shards, stack)
			defer c.StopAll()

			// Ring-coverage oracle: every node's leaf set must contain its
			// true ring successor and predecessor among the live members.
			ringSucc := func(self overlay.Address) overlay.Address {
				selfKey := overlay.HashAddress(self)
				best := overlay.NilAddress
				var bestD uint32
				for _, a := range c.Addrs {
					if a == self {
						continue
					}
					d := selfKey.Distance(overlay.HashAddress(a))
					if best == overlay.NilAddress || d < bestD {
						best, bestD = a, d
					}
				}
				return best
			}
			ringPred := func(self overlay.Address) overlay.Address {
				selfKey := overlay.HashAddress(self)
				best := overlay.NilAddress
				var bestD uint32
				for _, a := range c.Addrs {
					if a == self {
						continue
					}
					d := overlay.HashAddress(a).Distance(selfKey)
					if best == overlay.NilAddress || d < bestD {
						best, bestD = a, d
					}
				}
				return best
			}
			var lines []string
			for i := 0; i < confNodes; i++ {
				addr := c.Addrs[i]
				n := c.Nodes[addr]
				var leafset []overlay.Address
				n.Exec(func() {
					ag := n.Instance("pastry").Agent().(*pastry.Agent)
					leafset = append([]overlay.Address(nil), ag.Leafset...)
				})
				wantSucc, wantPred := ringSucc(addr), ringPred(addr)
				hasSucc, hasPred := false, false
				for _, a := range leafset {
					hasSucc = hasSucc || a == wantSucc
					hasPred = hasPred || a == wantPred
				}
				if !hasSucc || !hasPred {
					t.Errorf("node %d (%v): leafset %v misses ring succ %v or pred %v",
						i, addr, leafset, wantSucc, wantPred)
				}
				lines = append(lines, fmt.Sprintf("node %2d leafset=%v", i, leafset))
			}
			lookups, delivered := runLookups(t, c, func(k overlay.Key) overlay.Address {
				return pastryOwner(c.Addrs, k)
			})
			if delivered < confLookups*9/10 {
				t.Errorf("only %d/%d lookups delivered", delivered, confLookups)
			}
			trace := strings.Join(append(lines, lookups...), "\n")
			traces = append(traces, trace)
		})
	}
	if len(traces) == 2 && traces[0] != traces[1] {
		t.Errorf("pastry conformance run differs between shard counts:\n--- shards=1\n%s\n--- shards=4\n%s", traces[0], traces[1])
	}
}
