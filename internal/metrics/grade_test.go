package metrics

import (
	"fmt"
	"strings"
	"testing"

	"macedon/internal/check"
	"macedon/internal/scenario"
)

func reportWith(sent, delivered, forwards int) *scenario.Report {
	return &scenario.Report{
		Scenario: "cmp", Protocol: "genchord",
		Phases: []scenario.PhaseReport{
			{OpsSent: sent, OpsDelivered: delivered, OpsForwarded: forwards, CtlMsgs: 1000, CtlBytes: 16000},
		},
	}
}

// withCtl overrides a report's control-overhead totals.
func withCtl(r *scenario.Report, msgs, bytes uint64) *scenario.Report {
	r.Phases[0].CtlMsgs, r.Phases[0].CtlBytes = msgs, bytes
	return r
}

// withViolations plants n invariant violations in a report's one phase.
func withViolations(r *scenario.Report, n int) *scenario.Report {
	r.Phases[0].Checks = &check.PhaseChecks{Total: n}
	return r
}

// TestGrade is the one table for the one grader: the live-vs-sim rows
// (moved from internal/deploy, same inputs, run against sim) beside rows
// that grade every quantity, control overhead included, under the bounds
// the retired gen-vs-hand gate used (gen against hand).
func TestGrade(t *testing.T) {
	widerHops := LiveVsSim
	widerHops.HopsFrac = 0.25
	genVsHand := Tolerances{DeliveryPoints: 2, HopsFrac: 0.25, MsgsFrac: 0.35, BytesFrac: 0.50}
	ungradedHops := genVsHand
	ungradedHops.HopsFrac = 0
	for _, c := range []struct {
		name     string
		live     bool // live-vs-sim row; otherwise gen-vs-hand
		run, ref *scenario.Report
		tol      Tolerances
		pass     bool
		failures []string // one substring per expected failure line, in order
		unit     string   // expected DeliveryUnit ("" = points)
	}{
		// live-vs-sim: delivery 2 points, hops 15%, control overhead informational.
		{live: true, name: "live within tolerance", // 2.535 vs 2.5 hops, Δ delivery 1 point
			run: reportWith(100, 99, 152), ref: reportWith(100, 100, 150), tol: LiveVsSim, pass: true},
		{live: true, name: "live delivery bound: a 3-point gap fails the 2-point bound and is named",
			run: reportWith(100, 97, 150), ref: reportWith(100, 100, 150), tol: LiveVsSim,
			failures: []string{"delivery: live 97.00% vs sim 100.00%"}},
		{live: true, name: "live hops bound: 2.4 vs 2.0 hops is +20%, over 15%",
			run: reportWith(100, 100, 140), ref: reportWith(100, 100, 100), tol: LiveVsSim,
			failures: []string{"hops: live 2.400 vs sim 2.000"}},
		{live: true, name: "live custom tolerance: widened bounds accept the same gap",
			run: reportWith(100, 100, 140), ref: reportWith(100, 100, 100), tol: widerHops, pass: true},
		// Multicast delivery rates are fan-out factors (hundreds of percent),
		// so the delivery bound applies relatively there: a 5-point gap at
		// ~995% is half a percent and passes.
		{live: true, name: "live fan-out: relative gap of 0.5% passes",
			run: reportWith(115, 1138, 1138), ref: reportWith(115, 1144, 1144), tol: LiveVsSim,
			pass: true, unit: "% relative"},
		{live: true, name: "live fan-out: an 11% relative gap still fails",
			run: reportWith(100, 800, 800), ref: reportWith(100, 900, 900), tol: LiveVsSim,
			failures: []string{"delivery: live 800.00% vs sim 900.00%"}, unit: "% relative"},
		{live: true, name: "live control overhead is reported, not graded",
			run: withCtl(reportWith(100, 100, 150), 1400, 32000), ref: reportWith(100, 100, 150), tol: LiveVsSim, pass: true},

		// gen-vs-hand: 2 points, hops 25%, msgs 35%, bytes 50%.
		{name: "gen within tolerance",
			run: withCtl(reportWith(100, 99, 160), 1300, 23000), ref: reportWith(100, 100, 150), tol: genVsHand, pass: true},
		{name: "gen hops: +20% is inside 25%",
			run: reportWith(100, 100, 140), ref: reportWith(100, 100, 100), tol: genVsHand, pass: true},
		{name: "gen control messages: +40% is over 35%",
			run: withCtl(reportWith(100, 100, 150), 1400, 16000), ref: reportWith(100, 100, 150), tol: genVsHand,
			failures: []string{"ctl msgs: gen 1400 vs hand 1000"}},
		{name: "gen control bytes: +60% is over 50%, and each exceeded bound is listed",
			run: withCtl(reportWith(100, 100, 150), 1400, 25600), ref: reportWith(100, 100, 150), tol: genVsHand,
			failures: []string{"ctl msgs:", "ctl bytes: gen 25600 vs hand 16000"}},
		{name: "a violation on the graded side fails whatever the tolerances",
			run: withViolations(reportWith(100, 100, 150), 2), ref: reportWith(100, 100, 150), tol: Tolerances{},
			failures: []string{"invariants: gen 2 violation(s), hand 0"}},
		{name: "a violation on the reference side fails too",
			run: reportWith(100, 100, 150), ref: withViolations(reportWith(100, 100, 150), 1), tol: genVsHand,
			failures: []string{"invariants: gen 0 violation(s), hand 1"}},
		{name: "a zero tolerance reports the gap and does not grade it",
			run: reportWith(100, 100, 250), ref: reportWith(100, 100, 100), tol: ungradedHops, pass: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			kind, runLabel, refLabel := "gen-vs-hand", "gen", "hand"
			if c.live {
				kind, runLabel, refLabel = "live-vs-sim", "live", "sim"
			}
			v := Grade(kind, Labelled{runLabel, c.run}, Labelled{refLabel, c.ref}, c.tol)
			if v.Pass != c.pass {
				t.Fatalf("pass = %v, want %v:\n%s", v.Pass, c.pass, v.Table())
			}
			if len(v.Failures) != len(c.failures) {
				t.Fatalf("failures = %q, want %d", v.Failures, len(c.failures))
			}
			for i, want := range c.failures {
				if !strings.Contains(v.Failures[i], want) {
					t.Errorf("failure %d = %q, want it to contain %q", i, v.Failures[i], want)
				}
			}
			if c.unit == "" {
				c.unit = "points"
			}
			if v.DeliveryUnit != c.unit {
				t.Errorf("delivery unit = %q, want %q", v.DeliveryUnit, c.unit)
			}
		})
	}
}

// TestGradeSidesAndTable pins what the table shows beyond the verdict: the
// aggregated sides, a bound only on graded rows, and a "-" cell for a phase
// only one report has.
func TestGradeSidesAndTable(t *testing.T) {
	sim := reportWith(100, 100, 150)
	sim.Phases = append(sim.Phases, scenario.PhaseReport{Name: "drain", OpsSent: 10, OpsDelivered: 10, OpsForwarded: 15, CtlMsgs: 1100})
	v := Grade("live-vs-sim", Labelled{"live", reportWith(100, 99, 152)}, Labelled{"sim", sim}, LiveVsSim)
	if v.Ref.Hops != 2.5 || v.Ref.Sent != 110 || v.Ref.CtlMsgs != 1100 {
		t.Fatalf("reference side = %+v", v.Ref)
	}
	table := v.Table()
	for _, want := range []string{
		`live-vs-sim "cmp": live vs sim`,
		"points, tol 2.0)",
		"tol 15%)",
		"(Δ 9.1%)\n", // ctl msgs 1000 vs 1100: shown, no bound
		fmt.Sprintf("%-24s %-26s %-26s\n", "1", "-", "10/10"),
		"verdict: PASS",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table lacks %q:\n%s", want, table)
		}
	}
}
