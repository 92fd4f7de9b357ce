package metrics

import (
	"strings"
	"testing"
	"time"

	"macedon/internal/scenario"
	"macedon/internal/simnet"
)

func TestSweepTable(t *testing.T) {
	rep := &scenario.SweepReport{
		Name:   "tbl",
		ForkAt: 75 * time.Second,
		Groups: 1,
		Results: []scenario.SweepVariantResult{
			{
				Name: "calm", Protocol: "chord", SharedPrefix: true,
				Report: &scenario.Report{
					Seed:  7,
					Final: simnet.Stats{Sent: 100, QueueDrops: 3, PartitionDrops: 2},
					Phases: []scenario.PhaseReport{
						{Name: "churn", OpsSent: 10, OpsDelivered: 9, MeanLatency: 20 * time.Millisecond},
					},
				},
			},
			{
				Name: "storm", Protocol: "pastry",
				Report: &scenario.Report{
					Seed:  7,
					Final: simnet.Stats{Sent: 200},
					Phases: []scenario.PhaseReport{
						{Name: "churn", OpsSent: 10, OpsDelivered: 5, MeanLatency: 90 * time.Millisecond},
						{Name: "extra", OpsSent: 4, OpsDelivered: 4},
					},
				},
			},
		},
	}
	got := SweepTable(rep)
	for _, want := range []string{
		"sweep \"tbl\"", "fork at 1m15s",
		"calm", "storm", "shared", "cold",
		"9/10 (20ms)", "5/10 (90ms)", "4/4",
		"90.0%", "1 extra",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("table missing %q:\n%s", want, got)
		}
	}
	// Variant absent from a phase row renders a blank cell, not a crash.
	if !strings.Contains(got, "-") {
		t.Fatalf("missing blank cell marker:\n%s", got)
	}
}
