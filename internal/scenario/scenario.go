// Package scenario is the declarative experiment engine: a scenario
// describes an entire overlay evaluation — how the population joins, how it
// churns, which network events strike, and what workload runs in each
// phase — and compiles into a deterministic virtual-time event schedule.
// The same scenario and seed always produce the identical event trace and
// metric report, which turns "as many scenarios as you can imagine" into
// reproducible regression tests instead of hand-rolled driver code.
//
// Scenarios are built either with Go literals or loaded from JSON (see
// docs/scenarios.md); Engine keeps the books of a run over either Backend:
// internal/harness.RunScenarioExec on an emulated cluster, internal/deploy.Run
// on live processes.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"macedon/internal/check"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("250ms", "1m30s") in JSON.
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string or nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"10s\"")
	}
	*d = Duration(ns)
	return nil
}

// Scenario is a complete declarative experiment description.
type Scenario struct {
	// Name labels the scenario in reports and traces.
	Name string `json:"name"`
	// Seed drives every random choice: joins, churn, events, workload.
	Seed int64 `json:"seed"`
	// Nodes is the overlay population size.
	Nodes int `json:"nodes"`
	// Routers sizes the generated INET topology (0 = default).
	Routers int `json:"routers,omitempty"`
	// Sites, when positive, replaces the INET topology with the site
	// matrix of the paper's Figures 8–9 (topology.NICESites): Nodes/Sites
	// members a site, in node order, and the report gains a per-site table
	// of delivery latency and stretch from node 0. An emulator topology
	// only: `macedon deploy` rejects it.
	Sites int `json:"sites,omitempty"`
	// Protocol selects the stack: chord, pastry, randtree, scribe
	// (pastry+scribe), splitstream (pastry+scribe+splitstream), or nice.
	Protocol string `json:"protocol"`
	// Params sets int auxiliary variables of the stack's generated layers
	// on every node before init, by their spec names (for example
	// {"fix_ms": 20000}). The harness rejects a name no layer declares.
	Params map[string]int `json:"params,omitempty"`
	// Join describes how the population enters the overlay.
	Join JoinSpec `json:"join"`
	// Settle is the setup period before the first phase: joins happen
	// inside it and protocols converge. 0 = join span + 60 s.
	Settle Duration `json:"settle,omitempty"`
	// Drain extends the run after the last phase so in-flight work can
	// finish before the final snapshot. 0 = 10 s.
	Drain Duration `json:"drain,omitempty"`
	// Phases run back-to-back after Settle.
	Phases []Phase `json:"phases"`

	// HeartbeatAfter/FailAfter tune the engine failure detector (§3.1);
	// zero keeps the node defaults.
	HeartbeatAfter Duration `json:"heartbeat_after,omitempty"`
	FailAfter      Duration `json:"fail_after,omitempty"`

	// Checks opts the run into the correctness plane (internal/check):
	// invariant checkers driven at every phase boundary by both backends.
	// Nil keeps every legacy output byte-identical.
	Checks *ChecksSpec `json:"checks,omitempty"`
}

// ChecksSpec selects the runtime invariant checkers of a scenario.
type ChecksSpec struct {
	// Names lists checkers: "ring", "leafset", "tree", "staleness", or
	// "auto" (the set fitting the protocol). docs/testing.md documents
	// each.
	Names []string `json:"names"`
	// Grace is the stability window: structural checks only judge nodes
	// whose liveness and connectivity were unchanged this long (default
	// 30s).
	Grace Duration `json:"grace,omitempty"`
	// StaleBound caps how long dead nodes may linger in failure-detected
	// route state (default 2×grace).
	StaleBound Duration `json:"stale_bound,omitempty"`
}

// JoinSpec describes the join process.
type JoinSpec struct {
	// Process is "immediate" (default), "staggered", or "poisson".
	Process string `json:"process,omitempty"`
	// Window spreads staggered joins uniformly across this duration.
	Window Duration `json:"window,omitempty"`
	// Rate is the Poisson arrival rate in joins per second.
	Rate float64 `json:"rate,omitempty"`
}

// Phase is one experiment stage: a duration with optional churn, network
// events, and workload, snapshotted into the report when it ends.
type Phase struct {
	Name     string    `json:"name"`
	Duration Duration  `json:"duration"`
	Churn    *Churn    `json:"churn,omitempty"`
	Events   []Event   `json:"events,omitempty"`
	Workload *Workload `json:"workload,omitempty"`
	// ForkPoint marks the end of this phase as the checkpoint/fork instant
	// for sweeps (docs/sweeps.md): variants share the simulation up to here
	// and diverge afterwards. Without a marker, sweeps fork at the settle
	// boundary. At most one phase may carry it. Plain `macedon scenario`
	// runs ignore it.
	ForkPoint bool `json:"fork_point,omitempty"`
}

// Churn is a node kill/revive process running for a phase.
type Churn struct {
	// Model is "poisson" (independent kills at Rate per second) or "wave"
	// (a massacre of Kill nodes every Period).
	Model string `json:"model"`
	// Rate is the Poisson kill rate in kills per second.
	Rate float64 `json:"rate,omitempty"`
	// Kill is the wave size.
	Kill int `json:"kill,omitempty"`
	// Period is the wave interval.
	Period Duration `json:"period,omitempty"`
	// Downtime revives each victim this long after its kill; 0 means the
	// kill is permanent.
	Downtime Duration `json:"downtime,omitempty"`
}

// Event kinds.
const (
	EvNodeDown  = "node_down" // host unreachable (node keeps running)
	EvNodeUp    = "node_up"   // host reachable again
	EvKill      = "kill"      // process death (node stops; cold rejoin on revive)
	EvRevive    = "revive"    // respawn a killed node
	EvPartition = "partition" // split the population in two
	EvHeal      = "heal"      // heal the partition
	EvDegrade   = "degrade"   // worsen a node's access pipe
	EvRestore   = "restore"   // restore a node's access pipe
	EvLinkDown  = "link_down" // fail a node's access pipe
	EvLinkUp    = "link_up"   // restore a failed access pipe
)

// Event is one scripted network event inside a phase.
type Event struct {
	// At is the offset from the phase start.
	At Duration `json:"at"`
	// Kind is one of the Ev* constants.
	Kind string `json:"kind"`
	// Node is the target node index (node events, degrade, link_down).
	Node int `json:"node,omitempty"`
	// Fraction sizes side A of a partition (0 < f < 1). Side A is the
	// first ⌈f·Nodes⌉ addresses, so the cut is deterministic.
	Fraction float64 `json:"fraction,omitempty"`
	// LatencyFactor multiplies the access-pipe latency (degrade).
	LatencyFactor float64 `json:"latency_factor,omitempty"`
	// Loss adds per-hop loss probability on the access pipe (degrade).
	Loss float64 `json:"loss,omitempty"`
}

// Workload kinds.
const (
	WlLookups   = "lookups"   // DHT lookup storm: random keys from random nodes
	WlMulticast = "multicast" // node 0 streams to a group every member joins
)

// Workload is the application traffic of a phase.
type Workload struct {
	// Kind is "lookups" or "multicast".
	Kind string `json:"kind"`
	// Rate is operations (or stream packets) per second.
	Rate float64 `json:"rate"`
	// Size is the payload size in bytes (default 64, minimum 8).
	Size int `json:"size,omitempty"`
	// Group names the multicast session (default the scenario name).
	Group string `json:"group,omitempty"`
}

// MaxOps bounds the operations a scenario may expect Compile to build: its
// spawns plus every phase's expected kills and workload ops. It sits far
// above the largest committed scenario (50,000 spawns, the 50k scale row)
// and keeps a hostile file from making Compile exhaust memory.
const MaxOps = 1_000_000

// MaxSites bounds a scenario's sites: the site matrix holds Sites² link
// latencies and a full mesh of Sites·(Sites−1)/2 links, so a hostile file
// must fail Validate before any of it is built. The paper's testbed has 8.
const MaxSites = 256

// maxLength bounds each stretch of a scenario's timeline — the settle, the
// join window, and the phases plus the drain — at 2^61 ns (about 73 years),
// so that no instant Compile adds up overflows.
const maxLength = time.Duration(1) << 61

// Load reads and validates a JSON scenario file.
func Load(path string) (*Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(b)
}

// Parse decodes and validates a JSON scenario.
func Parse(b []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the description before compilation.
func (s *Scenario) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("scenario %q: need at least 2 nodes, have %d", s.Name, s.Nodes)
	}
	switch s.Join.Process {
	case "", "immediate":
	case "staggered":
		if s.Join.Window <= 0 {
			return fmt.Errorf("scenario %q: staggered join needs a window", s.Name)
		}
	case "poisson":
		if s.Join.Rate <= 0 {
			return fmt.Errorf("scenario %q: poisson join needs a rate", s.Name)
		}
	default:
		return fmt.Errorf("scenario %q: unknown join process %q", s.Name, s.Join.Process)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %q: no phases", s.Name)
	}
	if err := s.checkSites(); err != nil {
		return err
	}
	for name, v := range s.Params {
		if name == "" || v < math.MinInt32 || v > math.MaxInt32 {
			return fmt.Errorf("scenario %q: param %q=%d is not a named int32", s.Name, name, v)
		}
	}
	if c := s.Checks; c != nil {
		if len(c.Names) == 0 {
			return fmt.Errorf("scenario %q: checks needs at least one checker name (or drop the field)", s.Name)
		}
		for _, n := range c.Names {
			if !check.Known(n) {
				return fmt.Errorf("scenario %q: unknown checker %q", s.Name, n)
			}
		}
		if c.Grace < 0 || c.StaleBound < 0 {
			return fmt.Errorf("scenario %q: checks grace/stale_bound must be positive", s.Name)
		}
	}
	forks := 0
	for _, p := range s.Phases {
		if p.ForkPoint {
			forks++
		}
	}
	if forks > 1 {
		return fmt.Errorf("scenario %q: at most one phase may set fork_point, have %d", s.Name, forks)
	}
	for i, p := range s.Phases {
		if p.Duration <= 0 {
			return fmt.Errorf("scenario %q: phase %d (%s) has no duration", s.Name, i, p.Name)
		}
		if c := p.Churn; c != nil {
			switch c.Model {
			case "poisson":
				if c.Rate <= 0 {
					return fmt.Errorf("scenario %q: phase %s: poisson churn needs a rate", s.Name, p.Name)
				}
			case "wave":
				if c.Kill <= 0 || c.Period <= 0 {
					return fmt.Errorf("scenario %q: phase %s: wave churn needs kill and period", s.Name, p.Name)
				}
			default:
				return fmt.Errorf("scenario %q: phase %s: unknown churn model %q", s.Name, p.Name, c.Model)
			}
		}
		for _, e := range p.Events {
			switch e.Kind {
			case EvNodeDown, EvNodeUp, EvKill, EvRevive, EvDegrade, EvRestore, EvLinkDown, EvLinkUp:
				if e.Node < 0 || e.Node >= s.Nodes {
					return fmt.Errorf("scenario %q: phase %s: event %s targets node %d of %d", s.Name, p.Name, e.Kind, e.Node, s.Nodes)
				}
			case EvPartition:
				if e.Fraction <= 0 || e.Fraction >= 1 {
					return fmt.Errorf("scenario %q: phase %s: partition fraction must be in (0,1)", s.Name, p.Name)
				}
			case EvHeal:
			default:
				return fmt.Errorf("scenario %q: phase %s: unknown event kind %q", s.Name, p.Name, e.Kind)
			}
			if e.Kind == EvDegrade {
				if e.LatencyFactor != 0 && e.LatencyFactor < 1 {
					return fmt.Errorf("scenario %q: phase %s: degrade latency_factor must be >= 1 (or 0 for unchanged)", s.Name, p.Name)
				}
				if e.Loss < 0 || e.Loss >= 1 {
					return fmt.Errorf("scenario %q: phase %s: degrade loss must be in [0,1)", s.Name, p.Name)
				}
			}
			if e.At < 0 || e.At.D() >= p.Duration.D() {
				return fmt.Errorf("scenario %q: phase %s: event at %v outside the phase", s.Name, p.Name, e.At.D())
			}
		}
		if w := p.Workload; w != nil {
			switch w.Kind {
			case WlLookups, WlMulticast:
			default:
				return fmt.Errorf("scenario %q: phase %s: unknown workload %q", s.Name, p.Name, w.Kind)
			}
			if w.Rate <= 0 {
				return fmt.Errorf("scenario %q: phase %s: workload needs a rate", s.Name, p.Name)
			}
		}
	}
	return s.checkBounds()
}

// checkSites rejects a sites value the site matrix cannot be built from.
func (s *Scenario) checkSites() error {
	switch {
	case s.Sites == 0:
		return nil
	case s.Sites < 0 || s.Sites > MaxSites:
		return fmt.Errorf("scenario %q: sites: %d is outside [0, %d]", s.Name, s.Sites, MaxSites)
	case s.Sites > s.Nodes || s.Nodes%s.Sites != 0:
		return fmt.Errorf("scenario %q: sites: %d sites do not divide %d nodes evenly", s.Name, s.Sites, s.Nodes)
	case s.Routers != 0:
		return fmt.Errorf("scenario %q: sites: a site matrix has no routers to size, drop routers=%d", s.Name, s.Routers)
	}
	return nil
}

// checkBounds holds the schedule Compile would build to MaxOps and its
// timeline to maxLength. The error names the phase and field that cross.
func (s *Scenario) checkBounds() error {
	for _, f := range []struct {
		name string
		d    Duration
	}{{"settle", s.Settle}, {"drain", s.Drain}, {"join window", s.Join.Window}} {
		if f.d < 0 || f.d.D() > maxLength {
			return fmt.Errorf("scenario %q: %s %v is outside [0, %v]", s.Name, f.name, f.d.D(), maxLength)
		}
	}
	if s.Nodes > MaxOps {
		return fmt.Errorf("scenario %q: join: %d nodes exceed the limit of %d ops", s.Name, s.Nodes, MaxOps)
	}
	ops, length := float64(s.Nodes), s.Drain.D()
	for i, p := range s.Phases {
		over := func(field string, n float64) error {
			ops += n
			if ops <= MaxOps {
				return nil
			}
			return fmt.Errorf("scenario %q: phase %d (%s): %s expects %.0f ops, %.0f in all, over the limit of %d",
				s.Name, i, p.Name, field, n, ops, MaxOps)
		}
		d := p.Duration.D()
		if d > maxLength-length {
			return fmt.Errorf("scenario %q: phase %d (%s): duration: the phases and drain last longer than %v", s.Name, i, p.Name, maxLength)
		}
		length += d
		if c := p.Churn; c != nil {
			if c.Downtime < 0 || c.Downtime.D() > maxLength {
				return fmt.Errorf("scenario %q: phase %d (%s): churn downtime %v is outside [0, %v]", s.Name, i, p.Name, c.Downtime.D(), maxLength)
			}
			kills := c.Rate * d.Seconds()
			if c.Model == "wave" {
				kills = float64(c.Kill) * float64(d/c.Period.D())
			}
			if err := over("churn", kills); err != nil {
				return err
			}
		}
		if w := p.Workload; w != nil {
			if err := over("workload rate", w.Rate*d.Seconds()); err != nil {
				return err
			}
		}
	}
	return nil
}

// ProtocolName is the scenario's protocol with the default applied.
func (s *Scenario) ProtocolName() string {
	if s.Protocol == "" {
		return "chord"
	}
	return s.Protocol
}

// CheckConfig resolves the scenario's checks spec into the correctness
// plane's configuration, or nil when checks are off.
func (s *Scenario) CheckConfig() *check.Config {
	if s.Checks == nil {
		return nil
	}
	return &check.Config{
		Names:      s.Checks.Names,
		Grace:      s.Checks.Grace.D(),
		StaleBound: s.Checks.StaleBound.D(),
	}
}

// ForkPhase returns the index of the phase whose end is the checkpoint/fork
// instant, or -1 when sweeps fork at the settle boundary (no marker).
func (s *Scenario) ForkPhase() int {
	for i, p := range s.Phases {
		if p.ForkPoint {
			return i
		}
	}
	return -1
}

// NeedsGroup reports whether any phase runs a multicast workload (the
// engine then creates a group and has every member join during setup).
func (s *Scenario) NeedsGroup() bool {
	for _, p := range s.Phases {
		if p.Workload != nil && p.Workload.Kind == WlMulticast {
			return true
		}
	}
	return false
}

// GroupName returns the multicast session name.
func (s *Scenario) GroupName() string {
	for _, p := range s.Phases {
		if p.Workload != nil && p.Workload.Kind == WlMulticast && p.Workload.Group != "" {
			return p.Workload.Group
		}
	}
	if s.Name != "" {
		return s.Name
	}
	return "scenario-session"
}
