package metrics

import (
	"strings"
	"testing"
	"time"

	"macedon/internal/scenario"
	"macedon/internal/simnet"
	"macedon/internal/topology"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func testGraph() (*topology.Graph, *topology.Routes) {
	g := topology.NewGraph()
	a, b := g.AddRouter(), g.AddRouter()
	g.AddLink(a, b, 10*time.Millisecond, 1e6, 15000)
	g.AttachClient(1, a, topology.DefaultAccess)
	g.AttachClient(2, b, topology.DefaultAccess)
	g.AttachClient(3, a, topology.DefaultAccess)
	return g, topology.NewRoutes(g)
}

func TestStretch(t *testing.T) {
	_, routes := testGraph()
	// direct 1-2: 1 + 10 + 1 = 12ms. Overlay took 24ms => stretch 2.
	if got := Stretch(routes, 1, 2, 24*time.Millisecond); got != 2 {
		t.Fatalf("stretch = %f", got)
	}
	if got := Stretch(routes, 1, 99, time.Millisecond); got >= 0 {
		t.Fatalf("unknown client stretch = %f", got)
	}
}

func TestLinkStress(t *testing.T) {
	g, routes := testGraph()
	// Overlay edges 1->2 and 3->2 both cross the middle physical link.
	edges := []OverlayEdge{{From: 1, To: 2}, {From: 3, To: 2}}
	stress := LinkStress(g, routes, edges)
	max := 0
	for _, s := range stress {
		if s > max {
			max = s
		}
	}
	if max != 2 {
		t.Fatalf("max stress = %d, want 2 (shared middle link)", max)
	}
	sum := StressSummary(stress)
	if sum.Max != 2 {
		t.Fatalf("stress summary = %+v", sum)
	}
}

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
