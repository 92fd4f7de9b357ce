package check

import (
	"sort"

	"macedon/internal/overlay"
)

// ChordOracle grades finger tables against global membership knowledge:
// "we calculated correct routing tables for each node given global
// knowledge of all nodes joining the system" (§4.2.2).
type ChordOracle struct {
	keys []uint32
	addr map[uint32]overlay.Address
}

// NewChordOracle builds the oracle over the full member set.
func NewChordOracle(members []overlay.Address) *ChordOracle {
	o := &ChordOracle{addr: make(map[uint32]overlay.Address, len(members))}
	for _, a := range members {
		k := uint32(overlay.HashAddress(a))
		o.keys = append(o.keys, k)
		o.addr[k] = a
	}
	sort.Slice(o.keys, func(i, j int) bool { return o.keys[i] < o.keys[j] })
	return o
}

// Successor returns the true owner of a key.
func (o *ChordOracle) Successor(k overlay.Key) overlay.Address {
	i := sort.Search(len(o.keys), func(i int) bool { return o.keys[i] >= uint32(k) })
	if i == len(o.keys) {
		i = 0
	}
	return o.addr[o.keys[i]]
}

// CorrectFingers counts how many of a node's finger entries match the true
// successor of their targets.
func (o *ChordOracle) CorrectFingers(self overlay.Address, fingers []overlay.Address) int {
	selfKey := uint32(overlay.HashAddress(self))
	correct := 0
	for i, f := range fingers {
		if f == overlay.NilAddress {
			continue
		}
		target := overlay.Key(selfKey + 1<<uint(i))
		if o.Successor(target) == f {
			correct++
		}
	}
	return correct
}

// FingersOK is Figure 10's y-axis: the mean number of fingers per live node
// that equal the true successor of their target among the live nodes. A
// node without fingers — not a ring protocol, or not joined — counts zero.
func FingersOK(nodes []NodeState) float64 {
	var live []overlay.Address
	for i := range nodes {
		if nodes[i].Alive {
			live = append(live, nodes[i].Addr)
		}
	}
	if len(live) == 0 {
		return 0
	}
	o := NewChordOracle(live)
	correct := 0
	for i := range nodes {
		if nodes[i].Alive {
			correct += o.CorrectFingers(nodes[i].Addr, nodes[i].Fingers)
		}
	}
	return float64(correct) / float64(len(live))
}
