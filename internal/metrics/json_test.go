package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"macedon/internal/scenario"
	"macedon/internal/simnet"
)

func sampleReport() *scenario.Report {
	return &scenario.Report{
		Scenario: "enc-test",
		Protocol: "chord",
		Seed:     9,
		Nodes:    4,
		Settle:   30 * time.Second,
		End:      60 * time.Second,
		Total:    70 * time.Second,
		Phases: []scenario.PhaseReport{
			{
				Name: "p0", Start: 30 * time.Second, End: 60 * time.Second,
				LiveNodes: 4, OpsSent: 10, OpsDelivered: 9, OpsSkipped: 1,
				OpsForwarded: 18, MeanHops: 3.0, MeanLatency: 5 * time.Millisecond,
				CtlMsgs: 100, CtlBytes: 4000,
				Net: simnet.Stats{Sent: 500, Delivered: 490, RandomLoss: 10, Bytes: 12345},
			},
		},
		Final: simnet.Stats{Sent: 700, Delivered: 690, Bytes: 54321},
	}
}

// TestReportJSONRoundTrip checks the encoding carries the fields the
// live-vs-sim diff needs and parses back cleanly.
func TestReportJSONRoundTrip(t *testing.T) {
	b, err := ReportToJSON(sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	var back ReportJSON
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("encoded report does not parse: %v\n%s", err, b)
	}
	if back.Scenario != "enc-test" || back.Protocol != "chord" || back.Nodes != 4 {
		t.Fatalf("header mangled: %+v", back)
	}
	if len(back.Phases) != 1 {
		t.Fatalf("phases = %d", len(back.Phases))
	}
	p := back.Phases[0]
	if p.OpsSent != 10 || p.OpsDelivered != 9 || p.OpsForwarded != 18 {
		t.Fatalf("ops mangled: %+v", p)
	}
	if p.MeanHops != 3.0 || p.DeliveryPct != 90 {
		t.Fatalf("derived metrics mangled: hops=%v pct=%v", p.MeanHops, p.DeliveryPct)
	}
	if p.CtlMsgs != 100 || p.Net.Drops != 10 {
		t.Fatalf("counters mangled: %+v", p)
	}
}

// TestReportJSONDeterministic: same report, same bytes.
func TestReportJSONDeterministic(t *testing.T) {
	a, _ := ReportToJSON(sampleReport())
	b, _ := ReportToJSON(sampleReport())
	if string(a) != string(b) {
		t.Fatal("encoding is not deterministic")
	}
}

// TestSweepJSON encodes a two-variant sweep and checks the structure.
func TestSweepJSON(t *testing.T) {
	rep := &scenario.SweepReport{
		Name:   "s",
		ForkAt: 30 * time.Second,
		Groups: 1,
		Results: []scenario.SweepVariantResult{
			{Name: "v1", Protocol: "chord", SharedPrefix: true, BranchWall: 123 * time.Millisecond, Report: sampleReport()},
			{Name: "v2", Protocol: "pastry", SharedPrefix: false, BranchWall: 456 * time.Millisecond, Report: sampleReport()},
		},
	}
	b, err := SweepToJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepJSON
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("encoded sweep does not parse: %v", err)
	}
	if len(back.Variants) != 2 || back.Variants[0].Name != "v1" || !back.Variants[0].SharedPrefix {
		t.Fatalf("variants mangled: %+v", back.Variants)
	}
	// Wall timings are machine-dependent and must stay out of the encoding.
	if strings.Contains(string(b), "wall") || strings.Contains(string(b), "123ms") {
		t.Fatalf("nondeterministic timing leaked into sweep JSON:\n%s", b)
	}
}
