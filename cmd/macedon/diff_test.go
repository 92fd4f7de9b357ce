package main

import (
	"strings"
	"testing"
)

// TestDiffPair: a protocol with a hand port resolves to its pair from either
// name; a protocol whose two names run the same generated code, and a name
// with no pair at all, are refused with an error saying why.
func TestDiffPair(t *testing.T) {
	for _, proto := range []string{"pastry", "genpastry"} {
		gen, hand, err := diffPair(proto)
		if err != nil || gen != "genpastry" || hand != "pastry" {
			t.Errorf("diffPair(%q) = %q, %q, %v; want genpastry, pastry", proto, gen, hand, err)
		}
	}
	for _, c := range []struct{ proto, why string }{
		{"chord", "same generated code"},
		{"genchord", "same generated code"},
		{"randtree", "same generated code"},
		{"genrandtree", "same generated code"},
		{"nosuch", "no gen/hand pair"},
	} {
		if _, _, err := diffPair(c.proto); err == nil || !strings.Contains(err.Error(), c.why) {
			t.Errorf("diffPair(%q) error = %v; want one saying %q", c.proto, err, c.why)
		}
	}
}
