package check

import (
	"sort"

	"macedon/internal/core"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genchord"
	"macedon/internal/overlays/genpastry"
	"macedon/internal/overlays/genrandtree"
	"macedon/internal/overlays/overcast"
)

// Extract reduces one live node's protocol stack to its NodeState. It runs
// the inspection on the node's serialized execution queue (core.Node.Exec),
// so it is safe from any goroutine: the scenario engine calls it at epoch
// barriers (where Exec runs inline and deterministically), a live agent
// from its control-connection goroutine.
//
// The walk stops at the first instance whose structural family it knows —
// layered stacks (scribe-on-pastry, bullet-on-randtree) are checked
// through their base overlay. Unknown protocols yield a bare liveness
// record that every structural checker skips.
func Extract(n *core.Node, idx int) NodeState {
	st := NodeState{Node: idx, Addr: n.Addr(), Alive: true}
	n.Exec(func() {
		for _, inst := range n.Stack() {
			if extractInstance(inst, &st) {
				break
			}
		}
	})
	finishRefs(&st)
	return st
}

// DeadState is the NodeState of a node that is down: liveness only.
func DeadState(idx int, addr overlay.Address) NodeState {
	return NodeState{Node: idx, Addr: addr, Alive: false}
}

// extractInstance fills st from one stack instance when it recognizes the
// agent, reporting whether it did.
func extractInstance(inst *core.Instance, st *NodeState) bool {
	joined := inst.State() == core.State("joined")
	switch ag := inst.Agent().(type) {
	case *genchord.Agent:
		st.Kind = KindRing
		st.Joined = joined
		st.Succs = append([]overlay.Address(nil), ag.Succs...)
		st.Pred = firstAddr(inst.NeighborsSnapshot("pred"))
		st.Fingers = append([]overlay.Address(nil), ag.Fingers[:]...)
	case *genpastry.Agent:
		st.Kind = KindLeafset
		st.Joined = joined
		st.Leafset = append([]overlay.Address(nil), ag.Leafset...)
	case *genrandtree.Agent:
		st.Kind = KindTree
		st.Joined = joined
		st.Root = ag.Root
		st.Parent = firstAddr(inst.NeighborsSnapshot("parent"))
		st.Children = inst.NeighborsSnapshot("kids")
	case *overcast.Protocol:
		st.Kind = KindTree
		st.Joined = joined
		st.Parent = firstAddr(inst.NeighborsSnapshot("papa"))
		st.Children = inst.NeighborsSnapshot("kids")
	default:
		return false
	}
	return true
}

func firstAddr(s []overlay.Address) overlay.Address {
	if len(s) == 0 {
		return overlay.NilAddress
	}
	return s[0]
}

// finishRefs assembles the audited reference set: the failure-detected
// route state (successors, predecessor, leaf set, parent, children),
// sorted and deduplicated so two extractions of the same state are
// byte-identical.
func finishRefs(st *NodeState) {
	var refs []overlay.Address
	refs = append(refs, st.Succs...)
	if st.Pred != overlay.NilAddress {
		refs = append(refs, st.Pred)
	}
	refs = append(refs, st.Leafset...)
	if st.Parent != overlay.NilAddress {
		refs = append(refs, st.Parent)
	}
	refs = append(refs, st.Children...)
	if len(refs) == 0 {
		return
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	out := refs[:0]
	var prev overlay.Address
	for _, r := range refs {
		if r == overlay.NilAddress || r == st.Addr || r == prev {
			continue
		}
		out = append(out, r)
		prev = r
	}
	st.Refs = out
}
