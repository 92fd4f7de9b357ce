package scenario

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"macedon/internal/core"
	"macedon/internal/overlay"
	"macedon/internal/overlays"
)

// Addr is node's overlay address on both backends: node i is address i+1.
// The emulator attaches its clients from that base, in node order, whatever
// the topology; a live agent gets the same address, and so the same hash
// key, which is what lets a live run and a sim run of one scenario route
// the identical key space.
func Addr(node int) overlay.Address { return overlay.Address(node + 1) }

// benchAliases are the two names the frozen bench/macebench scenarios still
// pass for chord and randtree. They go when the bench is rewritten (ROADMAP
// item 1).
var benchAliases = map[string]string{"genchord": "chord", "genrandtree": "randtree"}

// ResolveStack resolves a protocol name onto its node stack, lowest layer
// first, by walking the `uses` chain of the specs' generated registry, and
// sets params on every agent the stack builds, through the SetParam accessor
// codegen emits on each generated agent. The params are the values each
// spec's header sets on its base, overridden by the given ones. An unknown
// protocol, or a name that no layer of the stack declares, is an error that
// names the field (protocol or params), returned before any node exists. A
// stack with no params gets the generated factories themselves.
//
// Validate and Compile call it for a scenario, and a compiled schedule
// carries the result (Schedule.Stack); a live agent, which has no schedule,
// calls it on the protocol and params of its config.
func ResolveStack(proto string, params map[string]int) ([]core.Factory, error) {
	name := proto
	if n, ok := benchAliases[name]; ok {
		name = n
	}
	var stack []core.Factory
	all := map[string]int{}
	for {
		p, ok := overlays.Protocols[name]
		if !ok {
			return nil, fmt.Errorf("protocol: unknown %q (have %s)", proto,
				strings.Join(slices.Sorted(maps.Keys(overlays.Protocols)), ", "))
		}
		stack = append(stack, p.New)
		for k, v := range p.BaseParams {
			if _, set := all[k]; !set { // an upper layer's value wins
				all[k] = v
			}
		}
		if name = p.Uses; name == "" {
			break
		}
	}
	slices.Reverse(stack)
	maps.Copy(all, params)
	if len(all) == 0 {
		return stack, nil
	}
	names := slices.Sorted(maps.Keys(all))
	for _, name := range names {
		if !slices.ContainsFunc(stack, func(f core.Factory) bool {
			p, ok := f().(paramSetter)
			return ok && p.SetParam(name, 0)
		}) {
			return nil, fmt.Errorf("params: %q: no layer of protocol %q declares an int auxiliary variable of that name", name, proto)
		}
	}
	out := make([]core.Factory, len(stack))
	for i, f := range stack {
		out[i] = func() core.Agent {
			a := f()
			if p, ok := a.(paramSetter); ok {
				for _, name := range names {
					p.SetParam(name, int32(all[name]))
				}
			}
			return a
		}
	}
	return out, nil
}

// paramSetter is the accessor every generated agent carries.
type paramSetter interface {
	SetParam(name string, v int32) bool
}
