package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// A Sweep is a comparative experiment: one base scenario plus K variants
// that override parameters — seed, protocol, population, protocol params,
// churn rate, workload rate, shard count, or whole post-fork phases. The
// harness runs variants whose settled prefix is byte-identical from one
// shared checkpoint (run the prefix once, fork K branches), which is what
// makes "N designs, one warm-up" evaluations cheap; see docs/sweeps.md for
// the sharing rules.
type Sweep struct {
	// Name labels the sweep in reports.
	Name string `json:"name"`
	// Base is the scenario every variant starts from. A phase marked
	// fork_point sets the fork instant; otherwise branches fork at the
	// settle boundary.
	Base Scenario `json:"base"`
	// Variants are the parameter overrides, one per sweep branch.
	Variants []SweepVariant `json:"variants"`
}

// SweepVariant overrides base-scenario parameters for one branch. Zero
// values inherit from the base. Seed, Protocol, Nodes and Params overrides
// change the shared prefix itself, so such variants run cold (no prefix
// sharing); ChurnRate, WorkloadRate, and Phases apply only to post-fork
// phases and keep the prefix shareable. Shards is an execution parameter —
// it never changes results, but a variant pinned to a different shard
// count cannot share a checkpoint (snapshots are per-shard).
type SweepVariant struct {
	// Name labels the variant; defaults to "v<n>".
	Name string `json:"name,omitempty"`
	// Seed overrides the scenario seed (0 inherits).
	Seed int64 `json:"seed,omitempty"`
	// Protocol overrides the protocol stack ("" inherits).
	Protocol string `json:"protocol,omitempty"`
	// Nodes overrides the population size (0 inherits). Routers keep the
	// base's setting, so its default scales with the variant.
	Nodes int `json:"nodes,omitempty"`
	// Params overrides the base's protocol params name by name; the names
	// it does not mention inherit.
	Params map[string]int `json:"params,omitempty"`
	// Shards pins this variant's event-loop shard count (0 = CLI default).
	Shards int `json:"shards,omitempty"`
	// ChurnRate overrides the Poisson churn rate of every post-fork phase
	// that has Poisson churn (0 inherits).
	ChurnRate float64 `json:"churn_rate,omitempty"`
	// WorkloadRate overrides the workload rate of every post-fork phase
	// that has a workload (0 inherits).
	WorkloadRate float64 `json:"workload_rate,omitempty"`
	// Phases, when non-empty, replaces the post-fork phases entirely.
	Phases []Phase `json:"phases,omitempty"`
}

// LoadSweep reads and validates a JSON sweep file.
func LoadSweep(path string) (*Sweep, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSweep(b)
}

// ParseSweep decodes and validates a JSON sweep.
func ParseSweep(b []byte) (*Sweep, error) {
	var sw Sweep
	if err := json.Unmarshal(b, &sw); err != nil {
		return nil, fmt.Errorf("sweep: %v", err)
	}
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	return &sw, nil
}

// Validate checks the sweep description: the base must be a valid scenario
// and every variant must resolve to one.
func (sw *Sweep) Validate() error {
	if len(sw.Variants) == 0 {
		return fmt.Errorf("sweep %q: no variants", sw.Name)
	}
	if err := sw.Base.Validate(); err != nil {
		return fmt.Errorf("sweep %q base: %w", sw.Name, err)
	}
	_, err := sw.Resolve()
	return err
}

// ResolvedVariant is one variant with its overrides applied to the base.
type ResolvedVariant struct {
	Name     string
	Shards   int
	Scenario *Scenario
}

// Resolve applies every variant's overrides to a deep copy of the base and
// validates the results.
func (sw *Sweep) Resolve() ([]ResolvedVariant, error) {
	fp := sw.Base.ForkPhase()
	out := make([]ResolvedVariant, 0, len(sw.Variants))
	for i, v := range sw.Variants {
		name := v.Name
		if name == "" {
			name = fmt.Sprintf("v%d", i+1)
		}
		s, err := cloneScenario(&sw.Base)
		if err != nil {
			return nil, fmt.Errorf("sweep %q: %v", sw.Name, err)
		}
		s.Name = name
		if v.Seed != 0 {
			s.Seed = v.Seed
		}
		if v.Protocol != "" {
			s.Protocol = v.Protocol
		}
		if v.Nodes != 0 {
			s.Nodes = v.Nodes
		}
		for k, pv := range v.Params {
			if s.Params == nil {
				s.Params = make(map[string]int, len(v.Params))
			}
			s.Params[k] = pv
		}
		if len(v.Phases) > 0 {
			s.Phases = append(append([]Phase{}, s.Phases[:fp+1]...), v.Phases...)
		}
		for pi := fp + 1; pi < len(s.Phases); pi++ {
			p := &s.Phases[pi]
			if v.ChurnRate > 0 && p.Churn != nil && p.Churn.Model == "poisson" {
				p.Churn.Rate = v.ChurnRate
			}
			if v.WorkloadRate > 0 && p.Workload != nil {
				p.Workload.Rate = v.WorkloadRate
			}
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("sweep %q variant %q: %w", sw.Name, name, err)
		}
		out = append(out, ResolvedVariant{Name: name, Shards: v.Shards, Scenario: s})
	}
	return out, nil
}

// cloneScenario deep-copies a scenario through its JSON form.
func cloneScenario(s *Scenario) (*Scenario, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	var out Scenario
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SweepVariantResult is one variant's outcome.
type SweepVariantResult struct {
	Name     string
	Protocol string
	Shards   int
	// SharedPrefix reports whether the variant branched from a shared
	// checkpoint (false: it ran cold, its prefix being unique).
	SharedPrefix bool
	// BranchWall is the wall clock this variant consumed after the shared
	// prefix (the full run for a cold variant). Wall times are the only
	// nondeterministic part of a sweep result.
	BranchWall time.Duration
	Report     *Report
}

// SweepReport is the structured result of an executed sweep.
type SweepReport struct {
	Name string
	// ForkAt is the virtual fork instant of the shared-prefix groups (zero
	// when every variant ran cold).
	ForkAt time.Duration
	// Groups counts distinct prefixes across the variants.
	Groups int
	// PrefixWall is the wall clock spent simulating shared prefixes (once
	// per group); ColdPrefixWall is what the same prefixes would have cost
	// cold (each group's prefix re-simulated once per member); TotalWall
	// covers the whole sweep.
	PrefixWall, ColdPrefixWall, TotalWall time.Duration
	Results                               []SweepVariantResult
}

// TimingSummary renders the nondeterministic wall-clock accounting: how much
// real time the shared prefixes and each branch took, and what the same
// variants would have cost cold (prefix re-simulated per variant).
func (r *SweepReport) TimingSummary() string {
	var b strings.Builder
	shared := 0
	var branchSum time.Duration
	for _, vr := range r.Results {
		if vr.SharedPrefix {
			shared++
			branchSum += vr.BranchWall
		}
	}
	fmt.Fprintf(&b, "# timing: total %s", r.TotalWall.Round(time.Millisecond))
	if shared > 0 {
		fmt.Fprintf(&b, " (shared prefixes %s + branches %s)", r.PrefixWall.Round(time.Millisecond), branchSum.Round(time.Millisecond))
		est := r.ColdPrefixWall + branchSum
		fmt.Fprintf(&b, "; %d cold runs would re-simulate their prefixes (~%s)",
			shared, est.Round(time.Millisecond))
	}
	b.WriteString("\n")
	for _, vr := range r.Results {
		mode := "cold"
		if vr.SharedPrefix {
			mode = "forked"
		}
		fmt.Fprintf(&b, "#   %-16s %-7s %s\n", vr.Name, mode, vr.BranchWall.Round(time.Millisecond))
	}
	return b.String()
}
