package scenario

import (
	"iter"
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

// OpKind enumerates the concrete operations a compiled schedule contains.
type OpKind int

// Operation kinds, in rough lifecycle order.
const (
	OpSpawn     OpKind = iota // start node Node (joins the overlay)
	OpKill                    // stop node Node and drop its traffic
	OpRevive                  // respawn node Node (cold rejoin)
	OpNodeDown                // make node Node unreachable (process keeps running)
	OpNodeUp                  // make node Node reachable again
	OpPartition               // split: first SideA addresses vs the rest
	OpHeal                    // heal the partition
	OpDegrade                 // degrade node Node's access pipe
	OpRestore                 // restore node Node's access pipe
	OpLinkDown                // fail node Node's access pipe
	OpLinkUp                  // restore node Node's failed access pipe
	OpLookup                  // node Node routes key Key, op id ID
	OpMulticast               // node Node multicasts packet ID to the group
)

// String names the op kind for traces.
func (k OpKind) String() string {
	switch k {
	case OpSpawn:
		return "spawn"
	case OpKill:
		return "kill"
	case OpRevive:
		return "revive"
	case OpNodeDown:
		return "node_down"
	case OpNodeUp:
		return "node_up"
	case OpPartition:
		return "partition"
	case OpHeal:
		return "heal"
	case OpDegrade:
		return "degrade"
	case OpRestore:
		return "restore"
	case OpLinkDown:
		return "link_down"
	case OpLinkUp:
		return "link_up"
	case OpLookup:
		return "lookup"
	case OpMulticast:
		return "multicast"
	}
	return "?"
}

// Op is one scheduled operation at an absolute virtual-time offset.
type Op struct {
	At   time.Duration
	Kind OpKind
	// Node is the target node index (spawn/kill/revive/degrade/lookup...).
	Node int
	// ID tags workload operations; it rides the payload type field so
	// deliveries can be matched to sends.
	ID int
	// Key is the lookup target.
	Key uint32
	// SideA is the partition's side-A size.
	SideA int
	// LatencyFactor and Loss parameterize degradation.
	LatencyFactor, Loss float64
	// Size is the workload payload size.
	Size int
	// Phase is the phase the op fires in (-1 = setup).
	Phase int
}

// CompiledPhase is a phase with resolved absolute boundaries.
type CompiledPhase struct {
	Name       string
	Start, End time.Duration
}

// Schedule is the deterministic expansion of a scenario: every operation
// with its absolute firing time, sorted by (phase, time, emission order).
type Schedule struct {
	Scenario *Scenario
	// Stack is the scenario's resolved node stack, lowest layer first,
	// with its params set (ResolveStack).
	Stack []core.Factory
	// Group is the multicast session every member joins during setup, nil
	// when no phase runs a multicast workload.
	Group  *overlay.Key
	Ops    []Op
	Phases []CompiledPhase
	// JoinDone is when the last setup spawn fires.
	JoinDone time.Duration
	// Settle is the resolved setup length (phase 0 starts here).
	Settle time.Duration
	// End is the last phase boundary; Total adds the drain window.
	End, Total time.Duration
	// Lookups and Multicasts count the workload ops per kind.
	Lookups, Multicasts int
}

// Compile expands a scenario into its schedule. Compilation consumes the
// scenario's seed through a private PRNG in a fixed order (joins, churn
// instants, victim assignment, workloads), so the same scenario and seed
// always yield the identical op list.
func Compile(s *Scenario) (*Schedule, error) {
	stack, err := s.resolve()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	sched := &Schedule{Scenario: s, Stack: stack}
	if s.NeedsGroup() {
		g := overlay.HashString(s.GroupName())
		sched.Group = &g
	}

	// 1. Joins. Node 0 is the bootstrap and always spawns at t=0.
	sched.Ops = append(sched.Ops, Op{At: 0, Kind: OpSpawn, Node: 0, Phase: -1})
	process := s.Join.Process
	if (process == "" || process == "immediate") && s.Join.Window > 0 {
		// A warm-up window turns the t=0 spawn herd into a uniform spread:
		// "immediate" with a window is the staggered process by another
		// name, so herd-heavy scenarios can opt out of the single-instant
		// join without restating their join spec.
		process = "staggered"
	}
	switch process {
	case "", "immediate":
		for i := 1; i < s.Nodes; i++ {
			sched.Ops = append(sched.Ops, Op{At: 0, Kind: OpSpawn, Node: i, Phase: -1})
		}
	case "staggered":
		for i := 1; i < s.Nodes; i++ {
			// Window·i/Nodes in 128 bits: the product may not fit in 64.
			hi, lo := bits.Mul64(uint64(s.Join.Window), uint64(i))
			q, _ := bits.Div64(hi, lo, uint64(s.Nodes))
			at := time.Duration(q)
			sched.Ops = append(sched.Ops, Op{At: at, Kind: OpSpawn, Node: i, Phase: -1})
			if at > sched.JoinDone {
				sched.JoinDone = at
			}
		}
	case "poisson":
		at := time.Duration(0)
		for i := 1; i < s.Nodes; i++ {
			at = min(at+expDuration(rng, s.Join.Rate), maxLength)
			sched.Ops = append(sched.Ops, Op{At: at, Kind: OpSpawn, Node: i, Phase: -1})
		}
		sched.JoinDone = at
	}

	// 2. Phase boundaries. The settle period absorbs the join process.
	sched.Settle = s.Settle.D()
	if sched.Settle == 0 {
		sched.Settle = sched.JoinDone + 60*time.Second
	}
	if sched.Settle < sched.JoinDone {
		sched.Settle = sched.JoinDone
	}
	start := sched.Settle
	for _, p := range s.Phases {
		sched.Phases = append(sched.Phases, CompiledPhase{Name: p.Name, Start: start, End: start + p.Duration.D()})
		start += p.Duration.D()
	}
	sched.End = start
	drain := s.Drain.D()
	if drain == 0 {
		drain = 10 * time.Second
	}
	sched.Total = sched.End + drain

	// 3. Churn instants, phase by phase (fixed rng order), then victims
	// assigned chronologically against the live population.
	type slot struct {
		at    time.Duration
		phase int
		churn *Churn
	}
	var slots []slot
	for pi, p := range s.Phases {
		if p.Churn == nil {
			continue
		}
		cp := sched.Phases[pi]
		for _, t := range killTimes(p.Churn, cp.Start, cp.End, rng) {
			slots = append(slots, slot{at: t, phase: pi, churn: p.Churn})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].at < slots[j].at })
	pop := newPopulation(s.Nodes)
	for _, sl := range slots {
		pop.advance(sl.at)
		victim := pop.pickVictim(rng)
		if victim < 0 {
			continue // population exhausted; skip deterministically
		}
		pop.setUp(victim, false)
		sched.Ops = append(sched.Ops, Op{At: sl.at, Kind: OpKill, Node: victim, Phase: sl.phase})
		if dt := sl.churn.Downtime.D(); dt > 0 {
			rt := sl.at + dt
			if rt < sched.Total {
				pop.scheduleRevive(victim, rt)
				sched.Ops = append(sched.Ops, Op{At: rt, Kind: OpRevive, Node: victim, Phase: phaseAt(sched.Phases, rt)})
			}
		}
	}

	// 4. Explicit events.
	for pi, p := range s.Phases {
		cp := sched.Phases[pi]
		for _, e := range p.Events {
			op := Op{At: cp.Start + e.At.D(), Phase: pi, Node: e.Node}
			switch e.Kind {
			case EvNodeDown:
				op.Kind = OpNodeDown
			case EvNodeUp:
				op.Kind = OpNodeUp
			case EvKill:
				op.Kind = OpKill
			case EvRevive:
				op.Kind = OpRevive
			case EvPartition:
				op.Kind = OpPartition
				op.SideA = int(e.Fraction*float64(s.Nodes) + 0.5)
				if op.SideA < 1 {
					op.SideA = 1
				}
				if op.SideA >= s.Nodes {
					op.SideA = s.Nodes - 1
				}
			case EvHeal:
				op.Kind = OpHeal
			case EvDegrade:
				op.Kind = OpDegrade
				op.LatencyFactor = e.LatencyFactor
				op.Loss = e.Loss
			case EvRestore:
				op.Kind = OpRestore
			case EvLinkDown:
				op.Kind = OpLinkDown
			case EvLinkUp:
				op.Kind = OpLinkUp
			}
			sched.Ops = append(sched.Ops, op)
		}
	}

	// 5. Workloads.
	opID := 0
	for pi, p := range s.Phases {
		if p.Workload == nil {
			continue
		}
		w := p.Workload
		cp := sched.Phases[pi]
		size := w.Size
		if size <= 0 {
			size = 64
		}
		if size < 8 {
			size = 8 // room for the send timestamp
		}
		arrivals(rng, w.Rate, cp.Start, cp.End, func(t time.Duration) {
			op := Op{At: t, Phase: pi, ID: opID, Size: size}
			switch w.Kind {
			case WlLookups:
				op.Kind = OpLookup
				op.Node = rng.Intn(s.Nodes)
				op.Key = rng.Uint32()
				sched.Lookups++
			case WlMulticast:
				op.Kind = OpMulticast
				op.Node = 0
				sched.Multicasts++
			}
			sched.Ops = append(sched.Ops, op)
			opID++
		})
	}

	// Sort by (phase, time, emission order): the engine schedules in this
	// order, so simultaneous ops fire in a defined sequence and each
	// phase's snapshot sits exactly between its ops and the next phase's.
	sort.SliceStable(sched.Ops, func(i, j int) bool {
		if sched.Ops[i].Phase != sched.Ops[j].Phase {
			return sched.Ops[i].Phase < sched.Ops[j].Phase
		}
		return sched.Ops[i].At < sched.Ops[j].At
	})
	return sched, nil
}

// CueKind is what a cue does when it fires.
type CueKind uint8

const (
	CueOps       CueKind = iota // apply Ops[I:J], in order
	CueSettleEnd                // take the settle-boundary baseline
	CuePhaseEnd                 // snapshot phase I
)

// Cue is one step of a schedule's firing order, due at At. I and J index
// the schedule's Ops (a run of ops) or Phases (a phase end).
type Cue struct {
	At   time.Duration
	I, J int
	Kind CueKind
}

// Cues yields the cues of phases from..to in the order both backends fire
// them; from -1 leads with setup. Setup yields its ops, a same-instant run
// of spawns as one cue, then the settle end; each phase its ops and then
// its end, and an op due after that end (a revive in the drain window)
// behind it. At never decreases, and at one instant a phase's end fires
// before the next phase's ops: an op at a phase's start belongs to that
// phase.
func (s *Schedule) Cues(from, to int) iter.Seq[Cue] {
	return func(yield func(Cue) bool) {
		ops := s.Ops
		run := func(i, j int) bool { return yield(Cue{At: ops[i].At, I: i, J: j, Kind: CueOps}) }
		i := 0
		for i < len(ops) && ops[i].Phase < from {
			i++
		}
		if from < 0 {
			for i < len(ops) && ops[i].Phase < 0 {
				j := i + 1
				for ops[i].Kind == OpSpawn && j < len(ops) && ops[j].Phase < 0 && ops[j].Kind == OpSpawn && ops[j].At == ops[i].At {
					j++
				}
				if !run(i, j) {
					return
				}
				i = j
			}
			if !yield(Cue{At: s.Settle, Kind: CueSettleEnd}) {
				return
			}
		}
		for pi := max(from, 0); pi <= to; pi++ {
			end := s.Phases[pi].End
			for ; i < len(ops) && ops[i].Phase == pi && ops[i].At <= end; i++ {
				if !run(i, i+1) {
					return
				}
			}
			if !yield(Cue{At: end, I: pi, Kind: CuePhaseEnd}) {
				return
			}
			for ; i < len(ops) && ops[i].Phase == pi; i++ {
				if !run(i, i+1) {
					return
				}
			}
		}
	}
}

// phaseAt maps an absolute time onto its phase index (clamped to the last).
func phaseAt(phases []CompiledPhase, t time.Duration) int {
	for i, p := range phases {
		if t < p.End {
			return i
		}
	}
	return len(phases) - 1
}
