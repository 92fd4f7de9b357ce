package check

import (
	"sort"
	"strings"
	"testing"
	"time"

	"macedon/internal/overlay"
)

// The judged population: four ring nodes, four leafset nodes, four tree
// nodes and one ring node that died ten minutes ago, so every checker has
// subjects in every view and "trips no other checker" means something.
const (
	ringBase    = 0
	leafsetBase = 4
	treeBase    = 8
	deadNode    = 12
	population  = 13
)

func addrOf(node int) overlay.Address { return overlay.Address(1001 + node) }

// clockwise returns the nodes [base, base+4) in hash-ring order.
func clockwise(base int) []int {
	nodes := []int{base, base + 1, base + 2, base + 3}
	sort.Slice(nodes, func(i, j int) bool {
		return overlay.HashAddress(addrOf(nodes[i])) < overlay.HashAddress(addrOf(nodes[j]))
	})
	return nodes
}

// goodView builds a converged snapshot: each ring node points at its true
// successor and predecessor, each leaf set holds both ring neighbours, the
// tree is root → {a, b}, a → c with symmetric child lists, every reference
// is to a live node, and nothing has changed for ten minutes.
func goodView() *View {
	v := &View{
		Nodes:      make([]NodeState, population),
		UpFor:      make([]time.Duration, population),
		DownFor:    make([]time.Duration, population),
		ConnAge:    make([]time.Duration, population),
		Reachable:  make([]bool, population),
		Degraded:   make([]bool, population),
		Grace:      30 * time.Second,
		StaleBound: 60 * time.Second,
	}
	for i := range v.Nodes {
		v.Nodes[i] = NodeState{Node: i, Addr: addrOf(i), Alive: true, Joined: true}
		v.UpFor[i], v.ConnAge[i], v.Reachable[i] = 10*time.Minute, 10*time.Minute, true
	}
	v.Nodes[deadNode].Alive, v.Nodes[deadNode].Kind = false, KindRing
	v.UpFor[deadNode], v.DownFor[deadNode] = 0, 10*time.Minute

	ring, leaves := clockwise(ringBase), clockwise(leafsetBase)
	for k := 0; k < 4; k++ {
		succ, pred := addrOf(ring[(k+1)%4]), addrOf(ring[(k+3)%4])
		n := &v.Nodes[ring[k]]
		n.Kind, n.Succs, n.Pred, n.Refs = KindRing, []overlay.Address{succ}, pred, []overlay.Address{succ, pred}

		cw, ccw := addrOf(leaves[(k+1)%4]), addrOf(leaves[(k+3)%4])
		n = &v.Nodes[leaves[k]]
		n.Kind, n.Leafset, n.Refs = KindLeafset, []overlay.Address{cw, ccw}, []overlay.Address{cw, ccw}
	}

	root, a, b, c := treeBase, treeBase+1, treeBase+2, treeBase+3
	for i := root; i <= c; i++ {
		v.Nodes[i].Kind, v.Nodes[i].Root = KindTree, addrOf(root)
	}
	v.Nodes[root].Children = []overlay.Address{addrOf(a), addrOf(b)}
	v.Nodes[a].Parent, v.Nodes[a].Children = addrOf(root), []overlay.Address{addrOf(c)}
	v.Nodes[b].Parent = addrOf(root)
	v.Nodes[c].Parent = addrOf(a)
	return v
}

// TestCheckersTripOnExactlyTheirFault: the good view passes all four
// checkers, and each planted fault trips its own checker and no other.
func TestCheckersTripOnExactlyTheirFault(t *testing.T) {
	ring := clockwise(ringBase)
	leaves := clockwise(leafsetBase)
	a, c := treeBase+1, treeBase+3
	for _, tc := range []struct {
		name   string
		plant  func(v *View)
		want   string // the one checker that must fire ("" = none)
		node   int
		detail string
	}{
		{name: "good view", plant: func(*View) {}},
		{name: "wrong successor",
			plant: func(v *View) { v.Nodes[ring[0]].Succs[0] = addrOf(ring[2]) },
			want:  "ring", node: ring[0], detail: "skips stable node"},
		{name: "wrong successor on a node up for less than grace is repair in flight",
			plant: func(v *View) {
				v.Nodes[ring[0]].Succs[0] = addrOf(ring[2])
				v.UpFor[ring[0]] = 5 * time.Second
			}},
		{name: "missing leaf",
			plant: func(v *View) { v.Nodes[leaves[0]].Leafset = v.Nodes[leaves[0]].Leafset[1:] },
			want:  "leafset", node: leaves[0], detail: "misses nearest stable cw neighbor"},
		{name: "two-node parent cycle",
			plant: func(v *View) {
				v.Nodes[a].Parent, v.Nodes[c].Children = addrOf(c), []overlay.Address{addrOf(a)}
			},
			want: "tree", node: a, detail: "parent chain cycles"},
		{name: "reference to a node dead longer than the bound",
			plant: func(v *View) { v.Nodes[ring[1]].Refs = append(v.Nodes[ring[1]].Refs, addrOf(deadNode)) },
			want:  "staleness", node: ring[1], detail: "stale ref to node 12"},
		{name: "reference to a node that died inside the bound",
			plant: func(v *View) {
				v.Nodes[ring[1]].Refs = append(v.Nodes[ring[1]].Refs, addrOf(deadNode))
				v.DownFor[deadNode] = 45 * time.Second
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkers, err := New(Config{Names: []string{"ring", "leafset", "tree", "staleness"}})
			if err != nil {
				t.Fatal(err)
			}
			v := goodView()
			tc.plant(v)
			pc := Run(checkers, v)
			if tc.want == "" {
				if pc.Failed() {
					t.Fatalf("expected a clean verdict, got %v", pc.Violations)
				}
				return
			}
			if !pc.Failed() {
				t.Fatalf("the %s checker did not fire", tc.want)
			}
			named := false
			for _, vi := range pc.Violations {
				if vi.Checker != tc.want {
					t.Errorf("fault meant for %s also tripped %s", tc.want, vi)
				}
				if vi.Node == tc.node && strings.Contains(vi.Detail, tc.detail) {
					named = true
				}
			}
			if !named {
				t.Errorf("no violation names node %d with %q: %v", tc.node, tc.detail, pc.Violations)
			}
		})
	}
}
