package fuzz

import (
	"maps"
	"slices"
	"testing"

	"macedon/internal/check"
	"macedon/internal/core"
	"macedon/internal/overlays"
	"macedon/internal/scenario"
)

// TestDeclaredRoutingMatchesNameTables: for every protocol the generated
// registry holds, and the two names the frozen bench passes, the checkers
// "auto" resolves from the stack's declared routing kind, and the workload
// the fuzzer picks from it, are what the protocol-name tables they replaced
// gave. The expected values are those tables, written out; a new spec needs
// its row.
func TestDeclaredRoutingMatchesNameTables(t *testing.T) {
	ring := []string{"ring", "staleness"}
	leafset := []string{"leafset", "staleness"}
	tree := []string{"tree", "staleness"}
	none := []string{"staleness"}
	type routing struct {
		checkers []string
		workload string
	}
	want := map[string]routing{
		"chord":       {ring, scenario.WlLookups},
		"pastry":      {leafset, scenario.WlLookups},
		"scribe":      {leafset, scenario.WlLookups},
		"splitstream": {leafset, scenario.WlLookups},
		"randtree":    {tree, scenario.WlMulticast},
		"overcast":    {tree, scenario.WlMulticast},
		"bullet":      {tree, scenario.WlMulticast},
		"nice":        {none, scenario.WlLookups},
		"ammo":        {tree, scenario.WlMulticast},
	}
	want["genchord"], want["genrandtree"] = want["chord"], want["randtree"]
	for _, proto := range append(slices.Sorted(maps.Keys(overlays.Protocols)), "genchord", "genrandtree") {
		w, ok := want[proto]
		if !ok {
			t.Errorf("%q: no expected routing", proto)
			continue
		}
		stack, err := scenario.ResolveStack(proto, nil)
		if err != nil {
			t.Fatalf("%q: %v", proto, err)
		}
		cs, err := check.New(check.Config{Names: []string{"auto"}, Routing: core.StackRouting(stack)})
		if err != nil {
			t.Fatalf("%q: %v", proto, err)
		}
		var names []string
		for _, ch := range cs {
			names = append(names, ch.Name())
		}
		if !slices.Equal(names, w.checkers) {
			t.Errorf("%q: auto checkers %v, want %v", proto, names, w.checkers)
		}
		if got := workloadKind(proto); got != w.workload {
			t.Errorf("%q: workload %s, want %s", proto, got, w.workload)
		}
	}
}
