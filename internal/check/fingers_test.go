package check

import (
	"testing"

	"macedon/internal/overlay"
)

func TestChordOracle(t *testing.T) {
	members := []overlay.Address{10, 20, 30, 40}
	o := NewChordOracle(members)
	// Every member's own key maps to itself.
	for _, m := range members {
		if got := o.Successor(overlay.HashAddress(m)); got != m {
			t.Fatalf("Successor(own key) = %v, want %v", got, m)
		}
	}
	// A fully correct finger table scores all populated entries.
	self := overlay.Address(10)
	selfKey := uint32(overlay.HashAddress(self))
	fingers := make([]overlay.Address, 32)
	for i := range fingers {
		fingers[i] = o.Successor(overlay.Key(selfKey + 1<<uint(i)))
	}
	if got := o.CorrectFingers(self, fingers); got != 32 {
		t.Fatalf("correct fingers = %d", got)
	}
	// Nil entries are skipped, wrong entries are not counted.
	fingers[0] = overlay.NilAddress
	fingers[1] = overlay.Address(99)
	if got := o.CorrectFingers(self, fingers); got > 30 {
		t.Fatalf("correct fingers after corruption = %d", got)
	}
}

// TestFingersOK: the figure's y-axis grades each live node's fingers
// against the successors among live nodes only, and averages over the live
// nodes, counting a node without fingers as zero.
func TestFingersOK(t *testing.T) {
	live := []overlay.Address{10, 20, 30, 40}
	o := NewChordOracle(live)
	full := func(self overlay.Address) []overlay.Address {
		selfKey := uint32(overlay.HashAddress(self))
		f := make([]overlay.Address, 32)
		for i := range f {
			f[i] = o.Successor(overlay.Key(selfKey + 1<<uint(i)))
		}
		return f
	}
	nodes := []NodeState{
		{Node: 0, Addr: 10, Alive: true, Fingers: full(10)},
		{Node: 1, Addr: 20, Alive: true, Fingers: full(20)},
		{Node: 2, Addr: 30, Alive: true}, // not joined: no fingers
		{Node: 3, Addr: 40, Alive: true, Fingers: full(40)},
		DeadState(4, 50), // outside the oracle, and not averaged
	}
	if got := FingersOK(nodes); got != 3*32.0/4 {
		t.Fatalf("FingersOK = %v, want %v", got, 3*32.0/4)
	}
	// A finger naming the dead node is wrong even where it would succeed.
	nodes[0].Fingers[0] = 50
	if got := FingersOK(nodes); got != (3*32.0-1)/4 {
		t.Fatalf("FingersOK with a dead finger = %v, want %v", got, (3*32.0-1)/4)
	}
	if got := FingersOK([]NodeState{DeadState(0, 10)}); got != 0 {
		t.Fatalf("FingersOK with nobody alive = %v", got)
	}
}
