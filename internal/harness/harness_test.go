package harness

import (
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
