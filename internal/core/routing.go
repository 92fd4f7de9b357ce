package core

import "macedon/internal/overlay"

// Routing kinds: the structures a spec's routing declaration can name
// (docs/maclang.md).
const (
	RoutingRing    = "ring"
	RoutingLeafset = "leafset"
	RoutingTree    = "tree"
)

// RoutingView is one node's routing state as its spec's routing declaration
// names it: the kind, plus the addresses bound to the kind's roles. Lists
// are the caller's own; unbound roles stay zero.
type RoutingView struct {
	Kind           string
	Succs, Fingers []overlay.Address // ring: successor list, finger table
	Pred           overlay.Address   // ring
	Leafset        []overlay.Address // leafset
	Root, Parent   overlay.Address   // tree
	Children       []overlay.Address // tree
}

// Routed is an agent whose spec declares its routing state. Routing fills v
// on the node's execution queue; it sets v.Kind even for a nil inst.
type Routed interface {
	Routing(inst *Instance, v *RoutingView)
}

// StackRouting is the routing kind the lowest layer of stack that declares
// one declares, or "": a layered stack is judged by its base overlay.
func StackRouting(stack []Factory) string {
	for _, f := range stack {
		if r, ok := f().(Routed); ok {
			var v RoutingView
			r.Routing(nil, &v)
			return v.Kind
		}
	}
	return ""
}
