// Package metrics implements the overlay evaluation metrics the paper's
// §4.3 lists as built-in MACEDON facilities: latency stretch and relative
// delay penalty (RDP), physical link stress computed from extracted topology
// and routing information, control-traffic overhead, routing-table
// convergence against a global oracle (Figure 10), and bandwidth time
// series (Figure 12).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"macedon/internal/obs"
	"macedon/internal/overlay"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
	"macedon/internal/topology"
)

// Stretch is the ratio of overlay path latency to direct unicast latency
// between the same two clients. A negative return means the direct latency
// is unknown (disconnected or same node).
func Stretch(routes *topology.Routes, src, dst overlay.Address, overlayLatency time.Duration) float64 {
	direct, err := routes.ClientLatency(src, dst)
	if err != nil || direct <= 0 {
		return -1
	}
	return float64(overlayLatency) / float64(direct)
}

// Summary holds order statistics of a sample.
type Summary struct {
	N              int
	Mean, Min, Max float64
	P50, P90, P99  float64
}

// Summarize computes order statistics over a sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	var sum float64
	for _, x := range cp {
		sum += x
	}
	q := func(p float64) float64 {
		idx := int(p * float64(len(cp)-1))
		return cp[idx]
	}
	return Summary{
		N:    len(cp),
		Mean: sum / float64(len(cp)),
		Min:  cp[0],
		Max:  cp[len(cp)-1],
		P50:  q(0.50),
		P90:  q(0.90),
		P99:  q(0.99),
	}
}

// String renders the summary as one table row.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f",
		s.N, s.Mean, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// OverlayEdge is one logical overlay hop (e.g. tree parent → child).
type OverlayEdge struct {
	From, To overlay.Address
}

// LinkStress computes, for each physical link, how many overlay edges'
// unicast paths traverse it — the classic link-stress metric. It returns
// per-link counts for links with non-zero stress.
func LinkStress(g *topology.Graph, routes *topology.Routes, edges []OverlayEdge) map[topology.LinkID]int {
	stress := make(map[topology.LinkID]int)
	var path []topology.LinkID // reused: one buffer for every edge's path
	for _, e := range edges {
		fv, ok1 := g.ClientVertex(e.From)
		tv, ok2 := g.ClientVertex(e.To)
		if !ok1 || !ok2 {
			continue
		}
		path = routes.AppendPath(path[:0], fv, tv)
		for _, l := range path {
			stress[l]++
		}
	}
	return stress
}

// StressSummary reduces a stress map to order statistics.
func StressSummary(stress map[topology.LinkID]int) Summary {
	xs := make([]float64, 0, len(stress))
	for _, s := range stress {
		xs = append(xs, float64(s))
	}
	return Summarize(xs)
}

// BandwidthSeries accumulates delivered bytes into fixed-width time buckets:
// Figure 12's per-node average bandwidth over time.
type BandwidthSeries struct {
	Bucket time.Duration
	start  time.Time
	bytes  []uint64
}

// NewBandwidthSeries starts a series at the given origin.
func NewBandwidthSeries(start time.Time, bucket time.Duration) *BandwidthSeries {
	return &BandwidthSeries{Bucket: bucket, start: start}
}

// Add records n bytes delivered at time at. Samples timestamped before the
// series origin (clock skew, deliveries racing the origin snapshot) clamp
// into the first bucket rather than silently vanishing, so the series total
// always equals the bytes recorded.
func (b *BandwidthSeries) Add(at time.Time, n int) {
	idx := int(at.Sub(b.start) / b.Bucket)
	if idx < 0 {
		idx = 0
	}
	for len(b.bytes) <= idx {
		b.bytes = append(b.bytes, 0)
	}
	b.bytes[idx] += uint64(n)
}

// Points returns (bucket start offset, bits/sec) pairs.
func (b *BandwidthSeries) Points() []BandwidthPoint {
	out := make([]BandwidthPoint, len(b.bytes))
	for i, by := range b.bytes {
		out[i] = BandwidthPoint{
			Offset:     time.Duration(i) * b.Bucket,
			BitsPerSec: float64(by*8) / b.Bucket.Seconds(),
		}
	}
	return out
}

// BandwidthPoint is one bucket of a bandwidth series.
type BandwidthPoint struct {
	Offset     time.Duration
	BitsPerSec float64
}

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
