package metrics

import (
	"fmt"
	"math"
	"strings"
	"time"

	"macedon/internal/scenario"
)

// The grader behind the two-report verdict of `macedon deploy -vs-sim`,
// which runs one scenario on the live fleet and on the emulator. The two
// runs should agree and double-check each other: a drift outside tolerance
// means one of them diverged. Grade aggregates each report's phases and bounds the gap: delivery in
// absolute points for once-per-op workloads and relative percent for
// fan-out workloads, hops and control overhead as relative fractions, and
// no invariant violation on either side. The rendered table is a pure
// function of the two reports, so it can be pinned as a golden like a sweep
// table.

// Tolerances bound how far the graded run may drift from the reference
// before the verdict fails. A zero field means reported, not graded.
type Tolerances struct {
	// DeliveryPoints is the allowed delivery-rate gap in percentage points
	// (relative percent for fan-out workloads).
	DeliveryPoints float64
	// HopsFrac is the allowed |run − ref| / ref mean-hop gap.
	HopsFrac float64
	// MsgsFrac and BytesFrac bound the relative control-overhead gap
	// (cumulative protocol messages and bytes over the phased window).
	MsgsFrac  float64
	BytesFrac float64
}

// LiveVsSim holds a live deployment to the emulated run of the same
// scenario. Control overhead is informational: wall-clock timers and
// process restarts move it without either backend being wrong.
var LiveVsSim = Tolerances{DeliveryPoints: 2, HopsFrac: 0.15}

// Labelled is one of the two reports under comparison and the name its
// column carries.
type Labelled struct {
	Label  string
	Report *scenario.Report
}

// Side is one report reduced to the graded quantities.
type Side struct {
	Label           string
	Sent, Delivered int
	// Delivery is the delivery rate in percent over every workload phase.
	Delivery float64
	// Hops is mean hops per delivered operation
	// ((forwards+deliveries)/deliveries); zero when nothing was delivered.
	Hops float64
	// CtlMsgs and CtlBytes are the control overhead at the end of the
	// phased window.
	CtlMsgs, CtlBytes uint64
	// Violations totals the run's invariant-checker breaches.
	Violations int

	phases []scenario.PhaseReport
}

func sideOf(l Labelled) Side {
	s := Side{Label: l.Label, Violations: l.Report.CheckViolations(), phases: l.Report.Phases}
	forwards := 0
	for _, p := range s.phases {
		s.Sent += p.OpsSent
		s.Delivered += p.OpsDelivered
		forwards += p.OpsForwarded
	}
	if s.Sent > 0 {
		s.Delivery = 100 * float64(s.Delivered) / float64(s.Sent)
	}
	if s.Delivered > 0 {
		s.Hops = float64(forwards+s.Delivered) / float64(s.Delivered)
	}
	if n := len(s.phases); n > 0 {
		s.CtlMsgs, s.CtlBytes = s.phases[n-1].CtlMsgs, s.phases[n-1].CtlBytes
	}
	return s
}

// Verdict is the outcome of grading Run against Ref on one scenario.
type Verdict struct {
	// Kind names the comparison ("live-vs-sim").
	Kind     string
	Scenario string
	Run, Ref Side

	// DeliveryDelta is |run − ref| in DeliveryUnit: "points", or
	// "% relative" for fan-out workloads.
	DeliveryDelta float64
	DeliveryUnit  string
	// The relative gaps |run − ref| / ref; 0 when either side is unmeasured.
	HopsDelta, MsgsDelta, BytesDelta float64

	Tol  Tolerances
	Pass bool
	// Failures lists each bound that was exceeded.
	Failures []string
}

// relDelta is |a − b| / b, or 0 when either side is unmeasured.
func relDelta(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return math.Abs(a-b) / b
}

// Grade compares run against ref, the reference, within tol. An invariant
// violation on either side fails the verdict whatever the tolerances.
func Grade(kind string, run, ref Labelled, tol Tolerances) *Verdict {
	v := &Verdict{Kind: kind, Scenario: run.Report.Scenario, Run: sideOf(run), Ref: sideOf(ref), Tol: tol, Pass: true}
	a, b := &v.Run, &v.Ref

	// Lookup workloads deliver at most once per op, so the rates live on a
	// 0–100% scale and the bound is absolute points. Dissemination
	// workloads deliver once per receiving member — the "rate" is a fan-out
	// factor in the hundreds of percent — so the same bound is applied to
	// the relative gap instead (2 points ≈ 2% near 100%).
	v.DeliveryDelta = math.Abs(a.Delivery - b.Delivery)
	v.DeliveryUnit = "points"
	if math.Max(a.Delivery, b.Delivery) > 100 && b.Delivery > 0 {
		v.DeliveryDelta = 100 * v.DeliveryDelta / b.Delivery
		v.DeliveryUnit = "% relative"
	}
	if tol.DeliveryPoints > 0 && v.DeliveryDelta > tol.DeliveryPoints {
		v.fail("delivery: %s %.2f%% vs %s %.2f%% (Δ %.2f %s > %.2f)",
			a.Label, a.Delivery, b.Label, b.Delivery, v.DeliveryDelta, v.DeliveryUnit, tol.DeliveryPoints)
	}

	rel := func(name, verb string, x, y, bound float64) float64 {
		d := relDelta(x, y)
		if bound > 0 && d > bound {
			v.fail("%s: %s "+verb+" vs %s "+verb+" (Δ %.1f%% > %.0f%%)",
				name, a.Label, x, b.Label, y, 100*d, 100*bound)
		}
		return d
	}
	v.HopsDelta = rel("hops", "%.3f", a.Hops, b.Hops, tol.HopsFrac)
	v.MsgsDelta = rel("ctl msgs", "%.0f", float64(a.CtlMsgs), float64(b.CtlMsgs), tol.MsgsFrac)
	v.BytesDelta = rel("ctl bytes", "%.0f", float64(a.CtlBytes), float64(b.CtlBytes), tol.BytesFrac)

	if a.Violations > 0 || b.Violations > 0 {
		v.fail("invariants: %s %d violation(s), %s %d", a.Label, a.Violations, b.Label, b.Violations)
	}
	return v
}

func (v *Verdict) fail(format string, args ...any) {
	v.Pass = false
	v.Failures = append(v.Failures, fmt.Sprintf(format, args...))
}

// Table renders the verdict deterministically: the aggregate comparison
// columns, a per-phase delivery matrix in the sweep-table shape, and the
// verdict line. A row whose tolerance is zero shows its gap and no bound.
func (v *Verdict) Table() string {
	var b strings.Builder
	x, y := &v.Run, &v.Ref
	fmt.Fprintf(&b, "%s %q: %s vs %s\n", v.Kind, v.Scenario, x.Label, y.Label)
	fmt.Fprintf(&b, "  %-12s %14s %14s\n", "", x.Label, y.Label)
	fmt.Fprintf(&b, "  %-12s %8d/%-5d %8d/%-5d\n", "delivered", x.Delivered, x.Sent, y.Delivered, y.Sent)
	fmt.Fprintf(&b, "  %-12s %13.2f%% %13.2f%%  (Δ %.2f %s", "delivery", x.Delivery, y.Delivery, v.DeliveryDelta, v.DeliveryUnit)
	if v.Tol.DeliveryPoints > 0 {
		fmt.Fprintf(&b, ", tol %.1f", v.Tol.DeliveryPoints)
	}
	b.WriteString(")\n")
	rel := func(name, xs, ys string, delta, bound float64) {
		fmt.Fprintf(&b, "  %-12s %14s %14s  (Δ %.1f%%", name, xs, ys, 100*delta)
		if bound > 0 {
			fmt.Fprintf(&b, ", tol %.0f%%", 100*bound)
		}
		b.WriteString(")\n")
	}
	rel("mean hops", fmt.Sprintf("%.3f", x.Hops), fmt.Sprintf("%.3f", y.Hops), v.HopsDelta, v.Tol.HopsFrac)
	rel("ctl msgs", fmt.Sprint(x.CtlMsgs), fmt.Sprint(y.CtlMsgs), v.MsgsDelta, v.Tol.MsgsFrac)
	rel("ctl bytes", fmt.Sprint(x.CtlBytes), fmt.Sprint(y.CtlBytes), v.BytesDelta, v.Tol.BytesFrac)
	fmt.Fprintf(&b, "  %-12s %14d %14d\n", "violations", x.Violations, y.Violations)

	b.WriteString("\nper-phase delivered/sent (mean latency):\n")
	fmt.Fprintf(&b, "%-24s %-26s %-26s\n", "phase", x.Label, y.Label)
	cell := func(ps []scenario.PhaseReport, pi int) string {
		if pi >= len(ps) {
			return "-"
		}
		p := ps[pi]
		c := fmt.Sprintf("%d/%d", p.OpsDelivered, p.OpsSent)
		if p.MeanLatency > 0 {
			c += fmt.Sprintf(" (%s)", p.MeanLatency.Round(time.Microsecond))
		}
		return c
	}
	for pi := 0; pi < max(len(x.phases), len(y.phases)); pi++ {
		label := fmt.Sprintf("%d", pi)
		if pi < len(x.phases) && x.phases[pi].Name != "" {
			label = fmt.Sprintf("%d %s", pi, x.phases[pi].Name)
		}
		fmt.Fprintf(&b, "%-24s %-26s %-26s\n", label, cell(x.phases, pi), cell(y.phases, pi))
	}
	if v.Pass {
		b.WriteString("\nverdict: PASS\n")
	} else {
		b.WriteString("\nverdict: FAIL\n")
		for _, f := range v.Failures {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	}
	return b.String()
}
