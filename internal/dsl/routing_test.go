package dsl

import (
	"errors"
	"strings"
	"testing"
)

// routingBase declares one auxiliary variable of every type a routing role
// can be bound to, and a few it cannot.
const routingBase = `protocol r
neighbor_types { p_t 1 { } k_t 4 { } }
transports { UDP c; }
messages { c m { } }
auxiliary_data {
  node root;
  nodeset succs;
  nodetable fingers 8;
  keymap cache;
  int n;
  timer t 100;
  fail_detect p_t pred;
  fail_detect k_t kids;
}
`

// routingSeeds are well-formed routing declarations over routingBase, one or
// more per kind and per variable type a role takes.
var routingSeeds = []string{
	"routing ring { succ = succs; pred = pred; fingers = fingers; }",
	"routing ring { succ = kids; pred = root; fingers = succs; }",
	"routing ring { }",
	"routing leafset { leafset = fingers; }",
	"routing leafset { leafset = kids; }",
	"routing tree { root = root; parent = pred; children = kids; }",
	"routing tree { children = succs; parent = root; }",
}

// routingErrors are malformed routing declarations over routingBase: each
// must fail with a positioned error at pos, naming the fault. The
// declaration sits on line 15; a block cut short fails at the end of input.
var routingErrors = []struct {
	name, decl string
	pos        Pos
	want       string
}{
	{"unknown kind", "routing star { }", Pos{15, 9}, `unknown routing kind "star"`},
	{"kind not a name", "routing 42 { }", Pos{15, 9}, "expected routing kind"},
	{"unknown role", "routing ring { parent = pred; }", Pos{15, 16}, `routing ring has no role "parent" (have succ, pred, fingers)`},
	{"undeclared variable", "routing tree { root = nowhere; }", Pos{15, 16}, `binds undeclared variable "nowhere"`},
	{"int for a list role", "routing ring { succ = n; }", Pos{15, 16}, `routing role succ takes a nodeset, nodetable or neighbor list, not int "n"`},
	{"timer for a list role", "routing leafset { leafset = t; }", Pos{15, 19}, `not timer "t"`},
	{"keymap for a list role", "routing tree { children = cache; }", Pos{15, 16}, `not keymap "cache"`},
	{"node for a list role", "routing tree { children = root; }", Pos{15, 16}, `not node "root"`},
	{"nodeset for a single role", "routing tree { root = succs; }", Pos{15, 16}, `routing role root takes a node or a neighbor list, not nodeset "succs"`},
	{"nodetable for a single role", "routing ring { pred = fingers; }", Pos{15, 16}, `not nodetable "fingers"`},
	{"repeated role", "routing ring { succ = succs; succ = kids; }", Pos{15, 30}, "routing role succ bound twice"},
	{"second block", "routing ring { } routing tree { }", Pos{15, 18}, "second routing declaration (the first is at 15:1)"},
	{"missing equals", "routing ring { succ succs; }", Pos{15, 21}, `expected "="`},
	{"missing brace", "routing ring succ = succs;", Pos{15, 14}, `expected "{"`},
	{"unterminated", "routing ring { succ = succs;", Pos{16, 1}, "expected routing role"},
}

func TestRoutingParses(t *testing.T) {
	spec, err := Parse(routingBase + routingSeeds[0] + "\n")
	if err != nil {
		t.Fatal(err)
	}
	r := spec.Routing
	if r == nil || r.Kind != RoutingRing || r.Pos != (Pos{15, 1}) {
		t.Fatalf("routing = %+v", r)
	}
	want := []RoleBind{
		{"succ", "succs", Pos{15, 16}},
		{"pred", "pred", Pos{15, 30}},
		{"fingers", "fingers", Pos{15, 43}},
	}
	if len(r.Binds) != len(want) {
		t.Fatalf("binds = %+v", r.Binds)
	}
	for i, b := range r.Binds {
		if b != want[i] {
			t.Errorf("bind %d = %+v, want %+v", i, b, want[i])
		}
	}
	for _, decl := range routingSeeds {
		if _, err := Parse(routingBase + decl + "\n"); err != nil {
			t.Errorf("%s: %v", decl, err)
		}
	}
}

func TestRoutingKindsAndRoles(t *testing.T) {
	for _, c := range []struct {
		k     RoutingKind
		name  string
		roles string
	}{
		{RoutingRing, "ring", "succ* pred fingers*"},
		{RoutingLeafset, "leafset", "leafset*"},
		{RoutingTree, "tree", "root parent children*"},
	} {
		var roles []string
		for _, ro := range c.k.Roles() {
			if ro.List {
				ro.Name += "*"
			}
			roles = append(roles, ro.Name)
		}
		if c.k.String() != c.name || routingKindNamed(c.name) != c.k || strings.Join(roles, " ") != c.roles {
			t.Errorf("kind %d: %s %v, want %s %s", c.k, c.k, roles, c.name, c.roles)
		}
	}
	if RoutingKind(0).Roles() != nil || RoutingKind(9).Roles() != nil {
		t.Error("an invalid kind has roles")
	}
}

func TestRoutingErrors(t *testing.T) {
	for _, c := range routingErrors {
		_, err := Parse(routingBase + c.decl + "\n")
		var perr *Error
		if !errors.As(err, &perr) {
			t.Errorf("%s: error %v is not positioned", c.name, err)
			continue
		}
		if perr.Pos != c.pos || !strings.Contains(perr.Msg, c.want) {
			t.Errorf("%s: %v, want %v: ...%s...", c.name, err, c.pos, c.want)
		}
	}
}
