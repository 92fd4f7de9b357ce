package scenario

import (
	"fmt"
	"strings"
	"time"

	"macedon/internal/check"
	"macedon/internal/obs"
	"macedon/internal/simnet"
)

// SubStats returns a-b field-wise: the per-phase delta of network counters.
func SubStats(a, b simnet.Stats) simnet.Stats {
	return simnet.Stats{
		Sent:           a.Sent - b.Sent,
		Delivered:      a.Delivered - b.Delivered,
		QueueDrops:     a.QueueDrops - b.QueueDrops,
		RandomLoss:     a.RandomLoss - b.RandomLoss,
		DownDrops:      a.DownDrops - b.DownDrops,
		LinkDownDrops:  a.LinkDownDrops - b.LinkDownDrops,
		DegradeLoss:    a.DegradeLoss - b.DegradeLoss,
		PartitionDrops: a.PartitionDrops - b.PartitionDrops,
		NoRouteDrops:   a.NoRouteDrops - b.NoRouteDrops,
		Bytes:          a.Bytes - b.Bytes,
	}
}

// PhaseReport is the metric snapshot of one phase.
type PhaseReport struct {
	Name       string
	Start, End time.Duration
	// LiveNodes is the population still up when the phase ended.
	LiveNodes int
	// OpsSent counts workload operations issued during the phase (skipped
	// ops — dead sender — are excluded); OpsDelivered counts deliveries
	// attributed to them, by the end of the whole run. A multicast op
	// yields one delivery per receiving member.
	OpsSent, OpsDelivered int
	// OpsSkipped counts workload operations whose sender was down.
	OpsSkipped int
	// OpsForwarded counts forward() upcalls attributed to the phase's
	// workload operations: the intermediate overlay hops their payloads
	// took. MeanHops is the derived per-delivery hop count,
	// (forwards + deliveries) / deliveries — protocol-level numbers the
	// live-vs-sim conformance harness compares across substrates
	// (docs/deploy.md). Neither appears in the legacy Format output, so
	// golden traces predating them still verify.
	OpsForwarded int
	MeanHops     float64
	// MeanLatency averages delivery latency over the phase's delivered
	// operations (0 when none).
	MeanLatency time.Duration
	// CtlMsgs and CtlBytes are the protocol messages and bytes every live
	// node had sent by the end of the phase, minus the settle baseline:
	// cumulative control+data overhead at protocol level. Zero when the
	// executing engine does not sample node counters.
	CtlMsgs, CtlBytes uint64
	// Net is the network counter delta across the phase.
	Net simnet.Stats
	// Obs holds the phase's observability histograms when the run was
	// executed with the obs plane enabled; nil otherwise, and nil keeps
	// every legacy output byte-identical.
	Obs *PhaseObs
	// Checks holds the phase's invariant-checker verdict when the scenario
	// opted into the correctness plane; nil otherwise (same byte-identity
	// contract as Obs).
	Checks *check.PhaseChecks
}

// PhaseObs is the per-phase slice of the observability plane: distribution
// snapshots of the op latency and hop-count histograms attributed to the
// phase's workload, plus the phase's engine time series.
type PhaseObs struct {
	Latency obs.HistSnapshot
	Hops    obs.HistSnapshot
	// Series holds the phase's engine time series: points at phase-relative
	// virtual-time offsets, sampled at phase boundaries and any configured
	// intra-phase interval. Empty (no points) when the executor records no
	// series — live runs older than the push path, for instance.
	Series obs.SeriesSnapshot
}

// ObsReport is the run-level observability output: the final registry
// exposition, the sampled event log, and the merged per-hop span records.
type ObsReport struct {
	// Exposition is the full Prometheus text-format registry dump at run
	// end.
	Exposition string
	// Events are the sampled structured event-log lines.
	Events []string
	// Spans are the merged operation-trace span lines, in canonical order
	// (byte-identical across shard counts).
	Spans []string
}

// PhaseTotals is the substrate-independent accounting the Engine gathers
// for one phase: per-phase workload tallies plus cumulative counter
// snapshots taken when the phase ended. AssemblePhases turns rows of this
// shape into the report, so a sim report and a live report of the same
// scenario are comparable field by field.
type PhaseTotals struct {
	// Live is the population still up at phase end.
	Live int
	// Sent/Skipped/Delivered/Forwards and LatSum are per-phase workload
	// tallies (deliveries and forwards attributed to the phase whose
	// workload issued the operation).
	Sent, Skipped, Delivered, Forwards int
	LatSum                             time.Duration
	// Net is the cumulative network counter snapshot at phase end.
	Net simnet.Stats
	// CtlMsgs/CtlBytes are cumulative per-node protocol counters summed
	// over live nodes at phase end.
	CtlMsgs, CtlBytes uint64
	// Checks is the phase's invariant verdict; nil when checks are off.
	Checks *check.PhaseChecks
}

// satSub is saturating subtraction: counter sums taken over the live
// population can dip below the settle baseline when churn removes nodes
// (a revived node's counters restart at zero on both backends), and a
// clamped zero reads better than a wrapped uint64.
func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// AssemblePhases turns per-phase totals into the report's phase entries.
// base holds the cumulative snapshots taken when the settle period ended
// (the zero point of every cumulative column).
func AssemblePhases(phases []CompiledPhase, rows []PhaseTotals, base PhaseTotals) []PhaseReport {
	out := make([]PhaseReport, 0, len(phases))
	prev := base
	for pi, cp := range phases {
		row := rows[pi]
		pr := PhaseReport{
			Name:         cp.Name,
			Start:        cp.Start,
			End:          cp.End,
			LiveNodes:    row.Live,
			OpsSent:      row.Sent,
			OpsSkipped:   row.Skipped,
			OpsDelivered: row.Delivered,
			OpsForwarded: row.Forwards,
			Net:          SubStats(row.Net, prev.Net),
			CtlMsgs:      satSub(row.CtlMsgs, base.CtlMsgs),
			CtlBytes:     satSub(row.CtlBytes, base.CtlBytes),
			Checks:       row.Checks,
		}
		if pr.OpsDelivered > 0 {
			pr.MeanLatency = row.LatSum / time.Duration(pr.OpsDelivered)
			pr.MeanHops = float64(row.Forwards+row.Delivered) / float64(row.Delivered)
		}
		prev = row
		out = append(out, pr)
	}
	return out
}

// Report is the structured result of an executed scenario.
type Report struct {
	Scenario string
	Protocol string
	Seed     int64
	Nodes    int
	// Settle/End/Total are the resolved timeline boundaries.
	Settle, End, Total time.Duration
	// EventsRun counts schedule operations executed.
	EventsRun int
	Phases    []PhaseReport
	// Final is the network counter total over the whole run.
	Final simnet.Stats
	// Trace is the executed event log, one line per operation, identical
	// across runs of the same scenario and seed.
	Trace []string
	// Obs is the run's observability output; nil unless the run executed
	// with the obs plane enabled.
	Obs *ObsReport
	// Sites is the per-site table of a scenario with sites, in site order;
	// nil otherwise, which keeps every other output byte-identical.
	Sites []SiteStat
}

// SiteStat is one site's row of a scenario with sites: the paper's Figures
// 8 (stretch) and 9 (latency) plot one such row a site.
type SiteStat struct {
	Site, Members int
	// Received counts the workload deliveries at the site's members, over
	// the whole run. Node 0, the multicast source, is a member of site 0
	// but no receiver.
	Received int
	// MeanLatency is the mean delivery latency over those deliveries.
	MeanLatency time.Duration
	// MeanStretch is the mean over those deliveries of the delivery latency
	// divided by the receiver's unicast latency from node 0.
	MeanStretch float64
}

// FormatSites renders a per-site table; it writes nothing for no sites.
func FormatSites(w func(format string, args ...any), sites []SiteStat) {
	if len(sites) == 0 {
		return
	}
	w("sites: %-4s %8s %9s %14s %13s\n", "site", "members", "received", "mean_latency", "mean_stretch")
	for _, s := range sites {
		w("       %-4d %8d %9d %12.3fms %13.2f\n", s.Site, s.Members, s.Received,
			float64(s.MeanLatency.Microseconds())/1000, s.MeanStretch)
	}
}

// CheckViolations totals the invariant violations across every phase (0
// when checks were off or clean).
func (r *Report) CheckViolations() int {
	total := 0
	for _, p := range r.Phases {
		if p.Checks != nil {
			total += p.Checks.Total
		}
	}
	return total
}

// ChecksEnabled reports whether any phase carries a checks verdict.
func (r *Report) ChecksEnabled() bool {
	for _, p := range r.Phases {
		if p.Checks != nil {
			return true
		}
	}
	return false
}

// TraceText joins the event trace into one newline-terminated string.
func (r *Report) TraceText() string {
	if len(r.Trace) == 0 {
		return ""
	}
	return strings.Join(r.Trace, "\n") + "\n"
}

// Format renders the report deterministically. The output is pinned by the
// golden-trace corpus; anything new goes behind FormatOpts' verbose flag.
func (r *Report) Format(w func(format string, args ...any)) {
	r.FormatOpts(w, false)
}

// FormatOpts renders the report; verbose additionally prints the
// per-phase columns the legacy format omits (forwards, mean hops, control
// traffic) and the obs histogram snapshots when present.
func (r *Report) FormatOpts(w func(format string, args ...any), verbose bool) {
	w("scenario %q: protocol=%s nodes=%d seed=%d\n", r.Scenario, r.Protocol, r.Nodes, r.Seed)
	w("timeline: settle=%s end=%s total=%s events=%d\n", r.Settle, r.End, r.Total, r.EventsRun)
	for i, p := range r.Phases {
		w("phase %d %-14q [%s..%s] live=%d", i, p.Name, p.Start, p.End, p.LiveNodes)
		if p.OpsSent > 0 || p.OpsSkipped > 0 {
			w(" ops=%d delivered=%d", p.OpsSent, p.OpsDelivered)
			if p.OpsSkipped > 0 {
				w(" skipped=%d", p.OpsSkipped)
			}
			if p.MeanLatency > 0 {
				w(" mean_latency=%.3fms", float64(p.MeanLatency.Microseconds())/1000)
			}
			if verbose {
				w(" forwarded=%d mean_hops=%.2f", p.OpsForwarded, p.MeanHops)
			}
		}
		w("\n")
		w("  net: sent=%d delivered=%d qdrop=%d loss=%d down=%d linkdown=%d degrade=%d partition=%d noroute=%d\n",
			p.Net.Sent, p.Net.Delivered, p.Net.QueueDrops, p.Net.RandomLoss, p.Net.DownDrops,
			p.Net.LinkDownDrops, p.Net.DegradeLoss, p.Net.PartitionDrops, p.Net.NoRouteDrops)
		if verbose {
			w("  ctl: msgs=%d bytes=%d\n", p.CtlMsgs, p.CtlBytes)
			if p.Obs != nil {
				w("  obs latency: %s\n", p.Obs.Latency)
				w("  obs hops: %s\n", p.Obs.Hops)
				for _, line := range p.Obs.Series.Lines() {
					w("  obs series: %s\n", line)
				}
			}
		}
		// The checks section only exists for scenarios that opted in, so
		// printing it unconditionally keeps legacy goldens byte-identical.
		if c := p.Checks; c != nil {
			w("  checks: %s nodes=%d violations=%d\n", strings.Join(c.Checkers, ","), c.Nodes, c.Total)
			for _, vi := range c.Violations {
				w("    %s\n", vi)
			}
			if c.Total > len(c.Violations) {
				w("    ... %d more\n", c.Total-len(c.Violations))
			}
		}
	}
	FormatSites(w, r.Sites)
	w("total: sent=%d delivered=%d qdrop=%d loss=%d down=%d linkdown=%d degrade=%d partition=%d noroute=%d\n",
		r.Final.Sent, r.Final.Delivered, r.Final.QueueDrops, r.Final.RandomLoss, r.Final.DownDrops,
		r.Final.LinkDownDrops, r.Final.DegradeLoss, r.Final.PartitionDrops, r.Final.NoRouteDrops)
}

// String renders the report to a string (for determinism comparisons).
func (r *Report) String() string {
	var b strings.Builder
	r.Format(func(format string, args ...any) { fmt.Fprintf(&b, format, args...) })
	return b.String()
}

// VerboseString renders the report with the verbose columns.
func (r *Report) VerboseString() string {
	var b strings.Builder
	r.FormatOpts(func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }, true)
	return b.String()
}

// ObsText renders the run's observability section (exposition, sampled
// events, span records) as one deterministic block, or "" when the obs
// plane was off.
func (r *Report) ObsText() string {
	if r.Obs == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("--- obs exposition ---\n")
	b.WriteString(r.Obs.Exposition)
	if len(r.Obs.Events) > 0 {
		b.WriteString("--- obs events ---\n")
		for _, e := range r.Obs.Events {
			b.WriteString(e)
			b.WriteByte('\n')
		}
	}
	if len(r.Obs.Spans) > 0 {
		b.WriteString("--- obs spans ---\n")
		for _, s := range r.Obs.Spans {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	wroteHeader := false
	for pi, p := range r.Phases {
		if p.Obs == nil || len(p.Obs.Series.Points) == 0 {
			continue
		}
		if !wroteHeader {
			b.WriteString("--- obs series ---\n")
			wroteHeader = true
		}
		fmt.Fprintf(&b, "phase %d %q:\n", pi, p.Name)
		for _, line := range p.Obs.Series.Lines() {
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
