package codegen

import (
	"errors"
	"strings"
	"testing"

	"macedon/internal/dsl"
)

// routingBase declares one auxiliary variable of every type a routing role
// can be bound to.
const routingBase = `protocol p
neighbor_types { p_t 1 { } k_t 4 { } }
transports { UDP c; }
messages { c m { } }
auxiliary_data {
  node root;
  nodeset succs;
  nodetable fingers 8;
  int n;
  fail_detect p_t pred;
  fail_detect k_t kids;
}
`

// routingDecls are routing declarations over routingBase: the well-formed
// ones cover every kind and every variable type each role takes, the
// malformed ones every class of diagnostic.
var routingDecls = []string{
	"routing ring { succ = succs; pred = pred; fingers = fingers; }",
	"routing ring { succ = kids; pred = root; fingers = succs; }",
	"routing leafset { leafset = fingers; }",
	"routing tree { root = root; parent = pred; children = kids; }",
	"routing tree { }",
	"routing star { }",
	"routing ring { parent = pred; }",
	"routing ring { succ = n; }",
	"routing tree { root = succs; }",
	"routing ring { succ = succs; succ = kids; }",
	"routing ring { } routing tree { }",
	"routing ring { succ = nowhere; }",
	"routing ring { succ succs; }",
}

// TestRoutingMethod pins the emitted Routing for each variable type a role
// takes, type-checks every well-formed declaration's package with the agent
// asserted to be core.Routed, and checks that each malformed one fails with
// a positioned error.
func TestRoutingMethod(t *testing.T) {
	want := map[string][]string{
		routingDecls[0]: {
			"v.Kind = core.RoutingRing",
			"v.Succs = append([]overlay.Address(nil), a.Succs...)",
			`v.Pred = core.ListGet(inst.NeighborsSnapshot("pred"), 0)`,
			"v.Fingers = append([]overlay.Address(nil), a.Fingers[:]...)",
		},
		routingDecls[1]: {
			`v.Succs = inst.NeighborsSnapshot("kids")`,
			"v.Pred = a.Root",
			"v.Fingers = append([]overlay.Address(nil), a.Succs...)",
		},
		routingDecls[2]: {
			"v.Kind = core.RoutingLeafset",
			"v.Leafset = append([]overlay.Address(nil), a.Fingers[:]...)",
		},
		routingDecls[3]: {
			"v.Kind = core.RoutingTree",
			"v.Root = a.Root",
			`v.Parent = core.ListGet(inst.NeighborsSnapshot("pred"), 0)`,
			`v.Children = inst.NeighborsSnapshot("kids")`,
		},
		routingDecls[4]: {"v.Kind = core.RoutingTree\n}"},
	}
	for decl, lines := range want {
		spec, err := dsl.Parse(routingBase + decl + "\n")
		if err != nil {
			t.Fatalf("%s: %v", decl, err)
		}
		res, err := Generate(spec, "genp")
		if err != nil {
			t.Fatalf("%s: %v", decl, err)
		}
		for _, l := range lines {
			if !strings.Contains(res.Source, "\t"+l+"\n") {
				t.Errorf("%s: generated source lacks %q", decl, l)
			}
		}
		typeCheck(t, res.Source+"\nvar _ core.Routed = (*Agent)(nil)\n")
	}

	for _, decl := range routingDecls[5:] {
		var perr *dsl.Error
		if _, err := dsl.Parse(routingBase + decl + "\n"); !errors.As(err, &perr) {
			t.Errorf("%s: error %v, want a positioned one", decl, err)
		}
	}

	// No declaration, no method.
	spec, err := dsl.Parse(routingBase)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(spec, "genp")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Source, "Routing(") {
		t.Error("a spec without a routing declaration got a Routing method")
	}
}
