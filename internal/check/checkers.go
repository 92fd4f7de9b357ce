package check

import (
	"fmt"
	"slices"

	"macedon/internal/overlay"
)

// ringChecker verifies ring consistency against the global-knowledge
// oracle: a stable node's successor and predecessor must not skip over any
// stable live node, and every finger must sit at or past its interval
// start. The checks are arc checks, not equality checks, so a
// fresh joiner legitimately sitting between a node and its oracle
// successor never counts as a violation; dead pointers are the staleness
// checker's department.
type ringChecker struct{}

func (ringChecker) Name() string { return "ring" }

func (ringChecker) Check(v *View) []Violation {
	if v.Partitioned {
		return nil // a split ring is not supposed to agree
	}
	var out []Violation
	stable := members(v, KindRing)
	for _, i := range stable {
		n := &v.Nodes[i]
		self := overlay.HashAddress(n.Addr)
		if len(n.Succs) == 0 {
			out = append(out, Violation{Checker: "ring", Node: i, Detail: "no successor"})
			continue
		}
		succ := overlay.HashAddress(n.Succs[0])
		if c := oracleNext(v, stable, i, self, false); c >= 0 {
			ck := overlay.HashAddress(v.Nodes[c].Addr)
			if n.Succs[0] != v.Nodes[c].Addr && ck.Between(self, succ) {
				out = append(out, Violation{Checker: "ring", Node: i, Detail: fmt.Sprintf(
					"successor %v skips stable node %d (%v)", n.Succs[0], c, v.Nodes[c].Addr)})
			}
		}
		if n.Pred != overlay.NilAddress {
			pred := overlay.HashAddress(n.Pred)
			if p := oracleNext(v, stable, i, self, true); p >= 0 {
				pk := overlay.HashAddress(v.Nodes[p].Addr)
				if n.Pred != v.Nodes[p].Addr && pk.Between(pred, self) {
					out = append(out, Violation{Checker: "ring", Node: i, Detail: fmt.Sprintf(
						"predecessor %v skips stable node %d (%v)", n.Pred, p, v.Nodes[p].Addr)})
				}
			}
		}
		// Fingers refresh round-robin, one slot per period, so a slot
		// written from a transiently wrong lookup during churn persists up
		// to a full cycle — longer than the grace window. Grade them only
		// once the whole view has been quiet for the stale bound.
		if v.QuietFor(v.StaleBound) {
			for fi, f := range n.Fingers {
				if f == overlay.NilAddress {
					continue
				}
				start := overlay.Key(uint32(self) + 1<<uint(fi))
				if overlay.HashAddress(f).Between(self, start) {
					out = append(out, Violation{Checker: "ring", Node: i, Detail: fmt.Sprintf(
						"finger %d (%v) precedes its interval start", fi, f)})
				}
			}
		}
	}
	return out
}

// members returns the indices of the stable joined nodes of a kind.
func members(v *View, kind string) []int {
	var out []int
	for i := range v.Nodes {
		if v.Nodes[i].Kind == kind && v.Nodes[i].Joined && v.Stable(i) {
			out = append(out, i)
		}
	}
	return out
}

// oracleNext returns the stable member nearest to key self going clockwise
// (or counter-clockwise) on the hash ring, excluding node i; -1 when i is
// the only stable member.
func oracleNext(v *View, stable []int, i int, self overlay.Key, ccw bool) int {
	best, bestDist := -1, uint32(0)
	for _, j := range stable {
		if j == i {
			continue
		}
		k := overlay.HashAddress(v.Nodes[j].Addr)
		var d uint32
		if ccw {
			d = k.Distance(self) // distance from j forward to self
		} else {
			d = self.Distance(k) // distance from self forward to j
		}
		if d == 0 {
			continue
		}
		if best < 0 || d < bestDist {
			best, bestDist = j, d
		}
	}
	return best
}

// leafsetChecker verifies leaf sets: a stable node's leaf set must reach at
// least as close as the nearest stable live node in each ring direction. A
// fresher (non-stable) node sitting even closer satisfies the check — the
// arc is covered.
type leafsetChecker struct{}

func (leafsetChecker) Name() string { return "leafset" }

func (leafsetChecker) Check(v *View) []Violation {
	if v.Partitioned {
		return nil
	}
	var out []Violation
	stable := members(v, KindLeafset)
	for _, i := range stable {
		n := &v.Nodes[i]
		self := overlay.HashAddress(n.Addr)
		for _, ccw := range []bool{false, true} {
			c := oracleNext(v, stable, i, self, ccw)
			if c < 0 {
				continue
			}
			dir := "cw"
			oracleDist := self.Distance(overlay.HashAddress(v.Nodes[c].Addr))
			if ccw {
				dir = "ccw"
				oracleDist = overlay.HashAddress(v.Nodes[c].Addr).Distance(self)
			}
			covered := false
			for _, l := range n.Leafset {
				j := v.Index(l)
				if j < 0 || !v.Nodes[j].Alive {
					continue
				}
				lk := overlay.HashAddress(l)
				var d uint32
				if ccw {
					d = lk.Distance(self)
				} else {
					d = self.Distance(lk)
				}
				if d != 0 && d <= oracleDist {
					covered = true
					break
				}
			}
			if !covered {
				out = append(out, Violation{Checker: "leafset", Node: i, Detail: fmt.Sprintf(
					"leafset misses nearest stable %s neighbor %d (%v)", dir, c, v.Nodes[c].Addr)})
			}
		}
	}
	return out
}

// treeChecker verifies tree well-formedness for the tree kind:
// agreement on a single root, acyclic parent pointers, a live parent path
// from every stable node to the root, and parent/child link symmetry. The
// path and symmetry rules relax while any node's liveness or connectivity
// changed inside the grace window (repair may be in flight); a cycle is
// always a violation — no repair protocol here ever routes through one.
type treeChecker struct{}

func (treeChecker) Name() string { return "tree" }

const (
	pathUnknown = iota
	pathVisiting
	pathToRoot
	pathBroken
	pathCyclic
)

func (treeChecker) Check(v *View) []Violation {
	if v.Partitioned {
		return nil
	}
	var out []Violation
	subjects := members(v, KindTree)
	rootAddr := overlay.NilAddress
	rootFrom := -1
	for _, i := range subjects {
		n := &v.Nodes[i]
		if n.Root != overlay.NilAddress {
			if rootAddr == overlay.NilAddress {
				rootAddr, rootFrom = n.Root, i
			} else if n.Root != rootAddr {
				out = append(out, Violation{Checker: "tree", Node: i, Detail: fmt.Sprintf(
					"root disagreement: %v here vs %v at node %d", n.Root, rootAddr, rootFrom)})
			}
		}
	}
	if len(subjects) == 0 {
		return out
	}
	recent := v.RecentChurn()

	// Parent-path classification, memoized across subjects.
	status := make([]int, len(v.Nodes))
	var walk func(i int) int
	walk = func(i int) int {
		switch status[i] {
		case pathVisiting:
			status[i] = pathCyclic
			return pathCyclic
		case pathUnknown:
		default:
			return status[i]
		}
		n := &v.Nodes[i]
		if !n.Alive || !v.Reachable[i] {
			status[i] = pathBroken
			return pathBroken
		}
		if n.Parent == overlay.NilAddress {
			if n.Addr == rootAddr || rootAddr == overlay.NilAddress {
				status[i] = pathToRoot
			} else {
				status[i] = pathBroken
			}
			return status[i]
		}
		p := v.Index(n.Parent)
		if p < 0 {
			status[i] = pathBroken
			return pathBroken
		}
		status[i] = pathVisiting
		r := walk(p)
		if status[i] == pathVisiting { // not flagged as on-cycle by the recursion
			status[i] = r
		}
		return status[i]
	}

	for _, i := range subjects {
		n := &v.Nodes[i]
		if n.Parent == overlay.NilAddress && n.Addr != rootAddr && rootAddr != overlay.NilAddress {
			if !recent {
				out = append(out, Violation{Checker: "tree", Node: i, Detail: "orphaned: joined with no parent"})
			}
			continue
		}
		switch walk(i) {
		case pathCyclic:
			if status[i] == pathCyclic { // report only the on-cycle nodes, not their descendants
				out = append(out, Violation{Checker: "tree", Node: i, Detail: "parent chain cycles"})
			}
		case pathBroken:
			if !recent {
				out = append(out, Violation{Checker: "tree", Node: i, Detail: "no live parent path to the root"})
			}
		}
		if p := v.Index(n.Parent); p >= 0 && !recent && v.Stable(p) && v.Nodes[p].Kind == KindTree {
			if !slices.Contains(v.Nodes[p].Children, n.Addr) {
				out = append(out, Violation{Checker: "tree", Node: i, Detail: fmt.Sprintf(
					"parent %d (%v) does not list it as a child", p, n.Parent)})
			}
		}
	}
	return out
}

// stalenessChecker bounds route-state staleness: no reachable live node
// may still reference a node that has been dead longer than the stale
// bound — by then the failure detector must have evicted it from
// successor lists, leaf sets, and parent/child links (NodeState.Refs
// defines the audited state).
type stalenessChecker struct{}

func (stalenessChecker) Name() string { return "staleness" }

func (stalenessChecker) Check(v *View) []Violation {
	var out []Violation
	for i := range v.Nodes {
		n := &v.Nodes[i]
		if !n.Alive || !v.Reachable[i] || v.Degraded[i] {
			continue // an isolated node cannot learn about deaths
		}
		for _, r := range n.Refs {
			j := v.Index(r)
			if j < 0 || v.Nodes[j].Alive {
				continue
			}
			if v.DownFor[j] >= v.StaleBound {
				out = append(out, Violation{Checker: "staleness", Node: i, Detail: fmt.Sprintf(
					"stale ref to node %d (%v), down for %v", j, r, v.DownFor[j])})
			}
		}
	}
	return out
}

// SyntheticFullPopulation is a deliberately strict checker used to
// exercise the fuzzer's shrinking pipeline end to end: it flags every node
// that is down at a phase boundary, so any scenario with un-revived churn
// fails deterministically. It is not a protocol invariant; opt in with
// the "synthetic-full-population" name (macedon fuzz -synthetic).
type SyntheticFullPopulation struct{}

// Name implements Checker.
func (SyntheticFullPopulation) Name() string { return "synthetic-full-population" }

// Check implements Checker.
func (SyntheticFullPopulation) Check(v *View) []Violation {
	var out []Violation
	for i := range v.Nodes {
		if !v.Nodes[i].Alive {
			out = append(out, Violation{Checker: "synthetic-full-population", Node: i,
				Detail: "node down at phase end"})
		}
	}
	return out
}
