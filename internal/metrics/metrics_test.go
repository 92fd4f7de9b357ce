package metrics

import (
	"strings"
	"testing"
	"time"

	"macedon/internal/scenario"
	"macedon/internal/simnet"
)

func TestBandwidthSeries(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewBandwidthSeries(start, time.Second)
	s.Add(start.Add(100*time.Millisecond), 1000)
	s.Add(start.Add(900*time.Millisecond), 1000)
	s.Add(start.Add(1500*time.Millisecond), 500)
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].BitsPerSec != 16000 {
		t.Fatalf("bucket0 = %f bps", pts[0].BitsPerSec)
	}
	if pts[1].BitsPerSec != 4000 {
		t.Fatalf("bucket1 = %f bps", pts[1].BitsPerSec)
	}
}

// TestBandwidthSeriesPreStartClamped is the regression test for the silent
// sample drop: a delivery timestamped before the series origin (clock skew
// between recorder and origin snapshot) must land in the first bucket, not
// vanish — the series total has to equal the bytes recorded.
func TestBandwidthSeriesPreStartClamped(t *testing.T) {
	start := time.Unix(100, 0)
	s := NewBandwidthSeries(start, time.Second)
	s.Add(start.Add(-300*time.Millisecond), 250)
	s.Add(start.Add(200*time.Millisecond), 750)
	pts := s.Points()
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1", len(pts))
	}
	if got, want := pts[0].BitsPerSec, float64((250+750)*8); got != want {
		t.Fatalf("bucket0 = %f bps, want %f (pre-start sample dropped?)", got, want)
	}
}

func TestSweepTable(t *testing.T) {
	rep := &scenario.SweepReport{
		Name:   "tbl",
		ForkAt: 75 * time.Second,
		Groups: 1,
		Results: []scenario.SweepVariantResult{
			{
				Name: "calm", Protocol: "genchord", SharedPrefix: true,
				Report: &scenario.Report{
					Seed:  7,
					Final: simnet.Stats{Sent: 100, QueueDrops: 3, PartitionDrops: 2},
					Phases: []scenario.PhaseReport{
						{Name: "churn", OpsSent: 10, OpsDelivered: 9, MeanLatency: 20 * time.Millisecond},
					},
				},
			},
			{
				Name: "storm", Protocol: "genpastry",
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
