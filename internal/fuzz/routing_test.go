package fuzz

import (
	"slices"
	"testing"

	"macedon/internal/check"
	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/scenario"
)

// TestDeclaredRoutingMatchesNameTables: for every protocol name
// harness.ScenarioStack accepts, the checkers "auto" resolves from the
// stack's declared routing kind, and the workload the fuzzer picks from it,
// are what the protocol-name tables they replaced gave. The expected values
// are those tables, written out.
func TestDeclaredRoutingMatchesNameTables(t *testing.T) {
	ring := []string{"ring", "staleness"}
	leafset := []string{"leafset", "staleness"}
	tree := []string{"tree", "staleness"}
	none := []string{"staleness"}
	for _, c := range []struct {
		proto    string
		checkers []string
		workload string
	}{
		{"", ring, scenario.WlLookups},
		{"chord", ring, scenario.WlLookups},
		{"genchord", ring, scenario.WlLookups},
		{"pastry", leafset, scenario.WlLookups},
		{"genpastry", leafset, scenario.WlLookups},
		{"scribe", leafset, scenario.WlLookups},
		{"splitstream", leafset, scenario.WlLookups},
		{"randtree", tree, scenario.WlMulticast},
		{"genrandtree", tree, scenario.WlMulticast},
		{"overcast", tree, scenario.WlMulticast},
		{"bullet", tree, scenario.WlMulticast},
		{"nice", none, scenario.WlLookups},
		{"ammo", tree, scenario.WlMulticast},
	} {
		stack, err := harness.ScenarioStack(c.proto)
		if err != nil {
			t.Fatalf("%q: %v", c.proto, err)
		}
		cs, err := check.New(check.Config{Names: []string{"auto"}, Routing: core.StackRouting(stack)})
		if err != nil {
			t.Fatalf("%q: %v", c.proto, err)
		}
		var names []string
		for _, ch := range cs {
			names = append(names, ch.Name())
		}
		if !slices.Equal(names, c.checkers) {
			t.Errorf("%q: auto checkers %v, want %v", c.proto, names, c.checkers)
		}
		if got := workloadKind(c.proto); got != c.workload {
			t.Errorf("%q: workload %s, want %s", c.proto, got, c.workload)
		}
	}
}
