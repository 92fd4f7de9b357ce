// Package check is the correctness plane: runtime structural-invariant
// checkers that both execution backends — the virtual-time scenario engine
// and the live deployment controller — drive at phase boundaries. A checker
// sees a substrate-neutral snapshot of every node's protocol state (a View
// of NodeStates) and reports Violations; the per-phase verdict lands in the
// report as a PhaseChecks section, in the JSON encoders, and in the obs
// event log.
//
// Checkers are deliberately churn-tolerant: overlay protocols repair
// structure asynchronously, so a snapshot taken moments after a kill is
// allowed to be inconsistent. The View carries per-node liveness and
// connectivity ages, and every structural checker restricts itself to the
// *stable* population — nodes whose liveness and connectivity have not
// changed for a grace window — so a violation means "the protocol had time
// to repair this and did not", not "repair was in flight".
//
// Scenarios opt in via the spec's `checks` field (docs/testing.md); with
// checks off, every legacy output stays byte-identical.
package check

import (
	"fmt"
	"sort"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

// Node-state kinds: the routing kind a node's spec declares, deciding which
// checkers apply to it. Each kind's structural checker bears its name.
const (
	KindRing    = core.RoutingRing    // successor list, predecessor, fingers
	KindLeafset = core.RoutingLeafset // leaf set
	KindTree    = core.RoutingTree    // parent, children, root
)

// NodeState is one node's protocol state reduced to a substrate-neutral
// snapshot: plain address lists that extract identically from the emulated
// cluster and from a live agent process (it crosses the deploy control
// protocol as JSON). Absent fields stay zero; checkers skip what a
// protocol does not expose.
type NodeState struct {
	// Node is the scenario node index; Addr its overlay address.
	Node int             `json:"node"`
	Addr overlay.Address `json:"addr"`
	// Alive reports whether the node process is up.
	Alive bool `json:"alive"`
	// Kind is the structural family ("ring", "leafset", "tree", or "").
	Kind string `json:"kind,omitempty"`
	// Joined reports whether the protocol completed its join.
	Joined bool `json:"joined,omitempty"`

	// Ring state (core.RoutingRing).
	Succs   []overlay.Address `json:"succs,omitempty"`
	Pred    overlay.Address   `json:"pred,omitempty"`
	Fingers []overlay.Address `json:"fingers,omitempty"`

	// Leafset state (core.RoutingLeafset).
	Leafset []overlay.Address `json:"leafset,omitempty"`

	// Tree state (core.RoutingTree).
	Parent   overlay.Address   `json:"parent,omitempty"`
	Children []overlay.Address `json:"children,omitempty"`
	Root     overlay.Address   `json:"root,omitempty"`

	// Refs is the failure-detected route state the staleness checker
	// audits: successor lists, predecessor, leaf sets, parent and child
	// links — state a live protocol must evict when the referenced node
	// dies. Lazily-repaired state (finger tables, prefix routing-table
	// rows, location caches) is deliberately excluded: its staleness
	// bound is the repair-cycle length, not the failure detector's.
	// Sorted and deduplicated, so snapshots compare bytewise.
	Refs []overlay.Address `json:"refs,omitempty"`
}

// View is the phase-boundary snapshot handed to every checker: all node
// states plus the liveness/connectivity ages the stability rules need.
type View struct {
	// Phase is the phase index, PhaseName its label, At the snapshot's
	// offset on the run's timeline.
	Phase     int
	PhaseName string
	At        time.Duration

	// Nodes is indexed by scenario node index.
	Nodes []NodeState

	// UpFor[i] is how long node i has been continuously alive (0 when
	// down); DownFor[i] how long continuously dead (0 when up).
	UpFor   []time.Duration
	DownFor []time.Duration
	// ConnAge[i] is how long node i's connectivity has been unchanged:
	// time since the last node_down/up, link_down/up, degrade/restore or
	// partition/heal event touching it.
	ConnAge []time.Duration
	// Reachable[i] is false while node i sits behind an active node_down
	// or link_down; Degraded[i] while its access pipe is degraded.
	Reachable []bool
	Degraded  []bool
	// Partitioned reports an active network partition. Convergence
	// invariants (ring/leafset/tree coverage) are suspended under a
	// partition: a split network is not supposed to agree.
	Partitioned bool

	// Grace is the stability window; StaleBound the staleness checker's
	// limit on references to dead nodes.
	Grace      time.Duration
	StaleBound time.Duration

	byAddr map[overlay.Address]int
}

// Index maps an overlay address back to its node index (-1 when unknown).
func (v *View) Index(a overlay.Address) int {
	if v.byAddr == nil {
		v.byAddr = make(map[overlay.Address]int, len(v.Nodes))
		for i := range v.Nodes {
			v.byAddr[v.Nodes[i].Addr] = i
		}
	}
	if i, ok := v.byAddr[a]; ok {
		return i
	}
	return -1
}

// Stable reports whether node i belongs to the stable population: alive,
// reachable, undegraded, and unchanged (liveness and connectivity) for at
// least the grace window. Structural checkers use the stable set both as
// subjects and as the oracle membership.
func (v *View) Stable(i int) bool {
	return v.Nodes[i].Alive && v.Reachable[i] && !v.Degraded[i] &&
		v.UpFor[i] >= v.Grace && v.ConnAge[i] >= v.Grace
}

// RecentChurn reports whether any node's liveness or connectivity changed
// within the grace window: repair traffic may still be in flight, so the
// cross-node agreement checks relax.
func (v *View) RecentChurn() bool {
	for i := range v.Nodes {
		if v.Nodes[i].Alive {
			if v.UpFor[i] < v.Grace || v.ConnAge[i] < v.Grace {
				return true
			}
		} else if v.DownFor[i] < v.Grace {
			return true
		}
	}
	return false
}

// QuietFor reports whether every node's liveness and connectivity have been
// unchanged for at least d. Checks over state that refreshes on a cycle
// longer than the grace window gate on this instead of RecentChurn —
// a ring's round-robin finger repair, for example, revisits a given slot
// only once per full cycle, so a finger written from a transiently wrong
// lookup during churn can legitimately outlive the grace window.
func (v *View) QuietFor(d time.Duration) bool {
	for i := range v.Nodes {
		if v.Nodes[i].Alive {
			if v.UpFor[i] < d || v.ConnAge[i] < d {
				return false
			}
		} else if v.DownFor[i] < d {
			return false
		}
	}
	return true
}

// Violation is one invariant breach: which checker, which node (-1 for a
// whole-view violation), and a deterministic description.
type Violation struct {
	Checker string `json:"checker"`
	Node    int    `json:"node"`
	Detail  string `json:"detail"`
}

func (vi Violation) String() string {
	if vi.Node < 0 {
		return fmt.Sprintf("[%s] %s", vi.Checker, vi.Detail)
	}
	return fmt.Sprintf("[%s] node %d: %s", vi.Checker, vi.Node, vi.Detail)
}

// Checker inspects one phase-boundary View and reports violations. Check
// must be deterministic: the same View yields the same violations in the
// same order (the runner sorts anyway, as a belt).
type Checker interface {
	Name() string
	Check(v *View) []Violation
}

// PhaseChecks is the per-phase verdict: which checkers ran, how many nodes
// the snapshot covered, and every violation (sorted).
type PhaseChecks struct {
	// Checkers names the checkers that ran, in order.
	Checkers []string `json:"checkers"`
	// Nodes is the number of live nodes the snapshot covered.
	Nodes int `json:"nodes"`
	// Violations holds the breaches, sorted by (checker, node, detail) and
	// truncated to a readable cap; Total counts them all.
	Violations []Violation `json:"violations,omitempty"`
	Total      int         `json:"total_violations,omitempty"`
}

// Failed reports whether any violation was recorded.
func (pc *PhaseChecks) Failed() bool { return pc != nil && pc.Total > 0 }

// Run drives every checker over one View and assembles the verdict.
func Run(checkers []Checker, v *View) *PhaseChecks {
	pc := &PhaseChecks{}
	for _, c := range checkers {
		pc.Checkers = append(pc.Checkers, c.Name())
		pc.Violations = append(pc.Violations, c.Check(v)...)
	}
	for i := range v.Nodes {
		if v.Nodes[i].Alive {
			pc.Nodes++
		}
	}
	sort.Slice(pc.Violations, func(i, j int) bool {
		a, b := pc.Violations[i], pc.Violations[j]
		if a.Checker != b.Checker {
			return a.Checker < b.Checker
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Detail < b.Detail
	})
	pc.Total = len(pc.Violations)
	if len(pc.Violations) > maxViolationLines {
		pc.Violations = pc.Violations[:maxViolationLines]
	}
	return pc
}

// Config resolves a scenario's checks spec against a protocol.
type Config struct {
	// Names lists the requested checkers; "auto" expands to the checker
	// named after Routing, if any, and staleness.
	Names []string
	// Routing is the routing kind the stack declares (core.StackRouting).
	Routing string
	// Grace is the stability window (default 30s).
	Grace time.Duration
	// StaleBound limits how long dead nodes may linger in failure-detected
	// route state (default 2×Grace).
	StaleBound time.Duration
}

// Defaults for the stability windows.
const (
	DefaultGrace      = 30 * time.Second
	defaultStaleMul   = 2
	maxViolationLines = 64 // per phase, keeping reports readable
)

// checkers maps every name a scenario may request onto its checker; a
// routing kind's checker bears the kind's name, which is how "auto" finds it.
var checkers = map[string]Checker{
	KindRing:                    ringChecker{},
	KindLeafset:                 leafsetChecker{},
	KindTree:                    treeChecker{},
	"staleness":                 stalenessChecker{},
	"synthetic-full-population": SyntheticFullPopulation{},
}

// Known reports whether a checker name is valid in a scenario spec.
func Known(name string) bool { return name == "auto" || checkers[name] != nil }

// New resolves a Config into its checker set, each checker once, in the
// order the names first ask for it.
func New(cfg Config) ([]Checker, error) {
	var names []string
	for _, n := range cfg.Names {
		switch {
		case n != "auto":
			names = append(names, n)
		case cfg.Routing != "":
			names = append(names, cfg.Routing, "staleness")
		default:
			names = append(names, "staleness")
		}
	}
	out := make([]Checker, 0, len(names))
	seen := map[string]bool{}
	for _, n := range names {
		c, ok := checkers[n]
		if !ok {
			return nil, fmt.Errorf("check: unknown checker %q", n)
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// Resolve applies the Config's defaulting to its windows without building
// checkers — the view assembler needs the same resolved values.
func (cfg Config) Resolve() (grace, stale time.Duration) {
	grace, stale = cfg.Grace, cfg.StaleBound
	if grace <= 0 {
		grace = DefaultGrace
	}
	if stale <= 0 {
		stale = defaultStaleMul * grace
	}
	return grace, stale
}
