package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestClusterBasics(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Nodes: 5, Routers: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Addrs) != 5 {
		t.Fatalf("addrs = %d", len(c.Addrs))
	}
	if c.Bootstrap() != c.Addrs[0] {
		t.Fatal("bootstrap should be first client")
	}
	if _, err := c.DirectLatency(c.Addrs[0], c.Addrs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Fatal("empty config should fail")
	}
}

func TestTimestampPayload(t *testing.T) {
	now := time.Unix(12345, 67890)
	p := TimestampPayload(now, 100)
	if len(p) != 100 {
		t.Fatalf("len = %d", len(p))
	}
	got, ok := DecodeTimestamp(p)
	if !ok || !got.Equal(now) {
		t.Fatalf("decode = %v, %v", got, ok)
	}
	if _, ok := DecodeTimestamp([]byte{1}); ok {
		t.Fatal("short payload should fail")
	}
	if p := TimestampPayload(now, 2); len(p) != 8 {
		t.Fatalf("minimum size not applied: %d", len(p))
	}
}

// TestNICEFigureShape validates Figures 8/9 qualitatively: distant sites see
// higher latency, stretch stays in the published band, everyone receives.
func TestNICEFigureShape(t *testing.T) {
	res, err := RunNICE(NICEParams{
		Sites:   4,
		PerSite: 4,
		Seed:    13,
		Settle:  3 * time.Minute,
		Packets: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 4 {
		t.Fatalf("sites = %d", len(res.Sites))
	}
	for _, s := range res.Sites {
		t.Logf("site %d: members=%d received=%d stretch=%.2f latency=%v",
			s.Site, s.Members, s.Received, s.MeanStretch, s.MeanLatency)
	}
	for _, s := range res.Sites[1:] {
		if s.Received == 0 {
			t.Fatalf("site %d received nothing", s.Site)
		}
		if s.MeanStretch < 0.8 || s.MeanStretch > 8 {
			t.Fatalf("site %d stretch %.2f outside plausible band", s.Site, s.MeanStretch)
		}
	}
	// The farthest site must see more latency than the source's own site.
	near, far := res.Sites[0], res.Sites[len(res.Sites)-1]
	if far.MeanLatency <= near.MeanLatency {
		t.Fatalf("far site latency %v <= near site %v", far.MeanLatency, near.MeanLatency)
	}
	var sb strings.Builder
	res.PrintFigure8(func(f string, a ...any) { sb.WriteString(fmt.Sprintf(f, a...)) })
	res.PrintFigure9(func(f string, a ...any) { sb.WriteString(fmt.Sprintf(f, a...)) })
	out := sb.String()
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "Figure 9") {
		t.Fatal("printers missing headers")
	}
}
