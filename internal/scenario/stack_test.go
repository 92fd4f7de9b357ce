package scenario

import (
	"strings"
	"testing"

	"macedon/internal/overlay"
	"macedon/internal/overlays/pastry"
	"macedon/internal/overlays/scribe"
	"macedon/internal/overlays/splitstream"
)

// TestStackFollowsUsesChain: splitstream's stack is built from the specs'
// `uses` lines, lowest layer first — Pastry, then Scribe with the
// max_children of 16 that splitstream's header sets, then SplitStream — and
// a scenario's max_children param overrides the header's value. An unknown
// name, the empty one included, lists the registry's names.
func TestStackFollowsUsesChain(t *testing.T) {
	for _, c := range []struct {
		params map[string]int
		want   int32
	}{{nil, 16}, {map[string]int{"max_children": 4}, 4}} {
		stack, err := ResolveStack("splitstream", c.params)
		if err != nil {
			t.Fatal(err)
		}
		if len(stack) != 3 {
			t.Fatalf("params %v: %d layers, want 3", c.params, len(stack))
		}
		_, lowOK := stack[0]().(*pastry.Agent)
		mid, midOK := stack[1]().(*scribe.Agent)
		_, topOK := stack[2]().(*splitstream.Agent)
		if !lowOK || !midOK || !topOK {
			t.Fatalf("params %v: stack is %T, %T, %T", c.params, stack[0](), stack[1](), stack[2]())
		}
		if mid.MaxChildren != c.want {
			t.Errorf("params %v: scribe max_children %d, want %d", c.params, mid.MaxChildren, c.want)
		}
	}
	const have = "(have ammo, bullet, chord, nice, overcast, pastry, randtree, scribe, splitstream)"
	if _, err := ResolveStack("", nil); err == nil || !strings.HasSuffix(err.Error(), have) {
		t.Errorf("empty name: error %v, want it to end in %s", err, have)
	}
}

// TestCompileKeepsStackAndGroup: Compile resolves the stack once and keeps
// it, with the multicast group, on the schedule, and the bench's genchord
// alias resolves to Chord's stack.
func TestCompileKeepsStackAndGroup(t *testing.T) {
	s := &Scenario{Name: "g", Nodes: 2, Protocol: "genchord", Phases: []Phase{{Name: "p", Duration: Duration(1e9)}}}
	sched, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Stack) != 1 || sched.Group != nil {
		t.Fatalf("genchord: %d layers, group %v; want 1 layer and no group", len(sched.Stack), sched.Group)
	}
	s.Phases[0].Workload = &Workload{Kind: WlMulticast, Rate: 1, Group: "session"}
	if sched, err = Compile(s); err != nil {
		t.Fatal(err)
	}
	if sched.Group == nil || *sched.Group != overlay.HashString("session") {
		t.Fatalf("multicast scenario: group %v, want the hash of its session name", sched.Group)
	}
}
