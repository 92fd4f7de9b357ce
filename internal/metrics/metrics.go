// Package metrics reduces overlay runs to what the paper's evaluation
// reports: the comparative table of a sweep, the machine-readable report
// and sweep encodings, and the grader that compares a live run with an
// emulated one. Per-site latency and stretch (Figures 8–9), per-phase
// control-traffic overhead and the time series Figure 12 plots are parts
// of the scenario engine's report, which this package encodes.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"time"

	"macedon/internal/obs"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
)

// SweepTable renders a sweep's per-variant comparative report: one summary
// row per variant, then a per-phase delivery matrix aligning the variants
// column by column. Everything in the table is deterministic (wall-clock
// timing lives in SweepReport.TimingSummary instead), so sweep outputs can
// be diffed across runs and machines like any other trace.
func SweepTable(rep *scenario.SweepReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep %q: %d variants, %d shared-prefix group(s)", rep.Name, len(rep.Results), rep.Groups)
	if rep.ForkAt > 0 {
		fmt.Fprintf(&b, ", fork at %s", rep.ForkAt)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-18s %-11s %-10s %-7s %8s %10s %8s %12s %12s %10s\n",
		"variant", "protocol", "seed", "prefix", "ops", "delivered", "deliv%", "mean_lat", "net_sent", "drops")
	for _, vr := range rep.Results {
		r := vr.Report
		sent, del := 0, 0
		var lat time.Duration
		for _, p := range r.Phases {
			sent += p.OpsSent
			del += p.OpsDelivered
			lat += p.MeanLatency * time.Duration(p.OpsDelivered)
		}
		pct := 0.0
		var mean time.Duration
		if sent > 0 {
			pct = 100 * float64(del) / float64(sent)
		}
		if del > 0 {
			mean = lat / time.Duration(del)
		}
		mode := "cold"
		if vr.SharedPrefix {
			mode = "shared"
		}
		fmt.Fprintf(&b, "%-18s %-11s %-10d %-7s %8d %10d %7.1f%% %12s %12d %10d\n",
			vr.Name, vr.Protocol, r.Seed, mode, sent, del, pct,
			mean.Round(time.Microsecond), r.Final.Sent, sweepDrops(r.Final))
	}
	// Per-phase delivery matrix: phases aligned by index (variants may
	// diverge in phase structure after the fork; blank cells mark absent
	// phases).
	maxPhases := 0
	for _, vr := range rep.Results {
		if n := len(vr.Report.Phases); n > maxPhases {
			maxPhases = n
		}
	}
	if maxPhases > 0 {
		b.WriteString("\nper-phase delivered/sent (mean latency):\n")
		fmt.Fprintf(&b, "%-24s", "phase")
		for _, vr := range rep.Results {
			fmt.Fprintf(&b, " %-26s", vr.Name)
		}
		b.WriteString("\n")
		for pi := 0; pi < maxPhases; pi++ {
			label := fmt.Sprintf("%d", pi)
			for _, vr := range rep.Results {
				if pi < len(vr.Report.Phases) && vr.Report.Phases[pi].Name != "" {
					label = fmt.Sprintf("%d %s", pi, vr.Report.Phases[pi].Name)
					break
				}
			}
			fmt.Fprintf(&b, "%-24s", label)
			for _, vr := range rep.Results {
				if pi >= len(vr.Report.Phases) {
					fmt.Fprintf(&b, " %-26s", "-")
					continue
				}
				p := vr.Report.Phases[pi]
				cell := fmt.Sprintf("%d/%d", p.OpsDelivered, p.OpsSent)
				if p.MeanLatency > 0 {
					cell += fmt.Sprintf(" (%s)", p.MeanLatency.Round(time.Microsecond))
				}
				fmt.Fprintf(&b, " %-26s", cell)
			}
			b.WriteString("\n")
		}
	}
	for _, vr := range rep.Results {
		if len(vr.Report.Sites) > 0 {
			fmt.Fprintf(&b, "\nvariant %s per site:\n", vr.Name)
			scenario.FormatSites(func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }, vr.Report.Sites)
		}
	}
	sweepObsSection(&b, rep)
	return b.String()
}

// sweepObsColumns maps the obs-snapshot table's column heads to the merged
// exposition families they read (engine workload plus the scheduler
// telemetry — the obs books fork with the run, so every variant carries
// both, counted from time zero).
var sweepObsColumns = []struct{ head, family string }{
	{"ops_deliv", "macedon_ops_delivered_total"},
	{"sched_events", "macedon_sched_events_total"},
	{"stall_ns", "macedon_sched_barrier_stall_ns_total"},
	{"ev_per_vs", "macedon_sched_window_utilization"},
	{"pool_gets", "macedon_sched_pool_gets_total"},
	{"recycled", "macedon_sched_pool_recycled_total"},
}

// sweepObsSection appends the per-variant obs snapshot rows when the sweep
// ran with the observability plane enabled. Values come straight from each
// variant's merged exposition, so the section is as deterministic (and
// shard-invariant) as the exposition itself.
func sweepObsSection(b *strings.Builder, rep *scenario.SweepReport) {
	withObs := false
	for _, vr := range rep.Results {
		if vr.Report.Obs != nil {
			withObs = true
			break
		}
	}
	if !withObs {
		return
	}
	b.WriteString("\nper-variant obs snapshot:\n")
	fmt.Fprintf(b, "%-18s", "variant")
	for _, c := range sweepObsColumns {
		fmt.Fprintf(b, " %14s", c.head)
	}
	b.WriteString("\n")
	for _, vr := range rep.Results {
		fmt.Fprintf(b, "%-18s", vr.Name)
		vals := expoFamilyTotals(vr.Report.Obs)
		for _, c := range sweepObsColumns {
			v, ok := vals[c.family]
			if !ok {
				fmt.Fprintf(b, " %14s", "-")
				continue
			}
			fmt.Fprintf(b, " %14s", sweepObsValue(v))
		}
		b.WriteString("\n")
	}
}

// expoFamilyTotals parses an obs report's exposition and sums its samples
// by family name (nil-safe: returns an empty map for variants without obs).
func expoFamilyTotals(or *scenario.ObsReport) map[string]float64 {
	out := make(map[string]float64)
	if or == nil {
		return out
	}
	sc, err := obs.ParseText([]byte(or.Exposition))
	if err != nil {
		return out
	}
	for _, s := range sc.Samples {
		out[s.Name] += s.Value
	}
	return out
}

// sweepObsValue renders one cell: integral values print exactly, the rest
// with shortest-roundtrip precision (the exposition's own convention).
func sweepObsValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%g", v)
}

// sweepDrops sums every drop class of a network counter snapshot.
func sweepDrops(s simnet.Stats) uint64 {
	return s.QueueDrops + s.RandomLoss + s.DownDrops + s.LinkDownDrops +
		s.DegradeLoss + s.PartitionDrops + s.NoRouteDrops
}
