package check

import (
	"slices"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

// Extract reduces one live node's protocol stack to its NodeState. It runs
// the inspection on the node's serialized execution queue (core.Node.Exec),
// so it is safe from any goroutine: the scenario engine calls it at epoch
// barriers (where Exec runs inline and deterministically), a live agent
// from its control-connection goroutine.
//
// The state is the routing view of the lowest stack instance whose spec
// declares one (core.Routed), so a layered stack is checked through its
// base overlay. A stack that declares none yields a bare liveness record
// that every structural checker skips.
func Extract(n *core.Node, idx int) NodeState {
	st := NodeState{Node: idx, Addr: n.Addr(), Alive: true}
	n.Exec(func() {
		for _, inst := range n.Stack() {
			r, ok := inst.Agent().(core.Routed)
			if !ok {
				continue
			}
			var v core.RoutingView
			r.Routing(inst, &v)
			st.Kind, st.Joined = v.Kind, inst.State() == core.State("joined")
			st.Succs, st.Pred, st.Fingers, st.Leafset = v.Succs, v.Pred, v.Fingers, v.Leafset
			st.Root, st.Parent, st.Children = v.Root, v.Parent, v.Children
			break
		}
	})
	finishRefs(&st)
	return st
}

// DeadState is the NodeState of a node that is down: liveness only.
func DeadState(idx int, addr overlay.Address) NodeState {
	return NodeState{Node: idx, Addr: addr, Alive: false}
}

// finishRefs assembles the audited reference set: the failure-detected
// route state (successors, predecessor, leaf set, parent, children), less
// nil and self, sorted and deduplicated so two extractions of the same
// state are byte-identical.
func finishRefs(st *NodeState) {
	refs := slices.Concat(st.Succs, []overlay.Address{st.Pred}, st.Leafset, []overlay.Address{st.Parent}, st.Children)
	refs = slices.DeleteFunc(refs, func(r overlay.Address) bool { return r == overlay.NilAddress || r == st.Addr })
	slices.Sort(refs)
	if refs = slices.Compact(refs); len(refs) > 0 {
		st.Refs = refs
	}
}
