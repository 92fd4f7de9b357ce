// Behavioral validation of the generated Chord agent: the DSL → codegen →
// engine path produces a working DHT. Churn and routing-oracle gates live in
// the repository-root conformance tests; this is the steady-state smoke test
// and the allocation budget.
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

// ringSize is the rig both tests share: a staggered join, then 45 s to settle.
const ringSize = 12

func settledRing(t *testing.T) *harness.Cluster {
	t.Helper()
	c, err := harness.NewCluster(harness.ClusterConfig{Nodes: ringSize, Routers: 100, Seed: 424})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopAll)
	stack := []core.Factory{chord.New()}
	for i := 0; i < ringSize; i++ {
		c.SpawnAt(i, stack, time.Duration(i)*300*time.Millisecond)
	}
	c.RunFor(45 * time.Second)
	return c
}

func TestGeneratedRingForms(t *testing.T) {
	c := settledRing(t)

	oracle := check.NewChordOracle(c.Addrs)
	for i, addr := range c.Addrs {
		node := c.Nodes[addr]
		if st := node.Instance("chord").State(); st != "joined" {
			t.Fatalf("node %d state %q", i, st)
		}
		var succs []overlay.Address
		node.Exec(func() {
			ag := node.Instance("chord").Agent().(*chord.Agent)
			succs = append([]overlay.Address(nil), ag.Succs...)
		})
		want := oracle.Successor(overlay.HashAddress(addr) + 1)
		if len(succs) == 0 || succs[0] != want {
			t.Errorf("node %d (%v): successor %v, oracle %v", i, addr, succs, want)
		}
	}
}

// TestStabilizeRoundAllocs budgets one virtual second of a settled ring: every
// node runs a stabilize and a fix_fingers round, answers its predecessor's,
// and is swept by the failure detector. Nothing of that allocates: nodesets,
// decoded ones included, neighbor entries, messages and datagrams are reused
// in place, and every timer re-arms the one it has. Measured: 0 on this rig;
// 49 while each decoded get_pred_resp allocated its address list and each
// re-arm a timer, 107 before datagrams were copied into pooled packet records
// and lent to the receiver, and 260 before nodesets were appended in place,
// neighbor_sync became NeighborList.Assign and messages moved into per-agent
// scratch. The budget leaves room for a stray slice growth.
func TestStabilizeRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	c := settledRing(t)
	got := testing.AllocsPerRun(20, func() { c.RunFor(time.Second) })
	t.Logf("%.0f allocations per virtual second on %d nodes", got, ringSize)
	const budget = 4
	if got > budget {
		t.Fatalf("a settled round allocates %.0f times, budget %d", got, budget)
	}
}
