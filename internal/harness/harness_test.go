package harness

import (
	"encoding/binary"
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
	if got := time.Unix(0, int64(binary.BigEndian.Uint64(p))); !got.Equal(now) {
		t.Fatalf("payload carries %v, want %v", got, now)
	}
	if p := TimestampPayload(now, 2); len(p) != 8 {
		t.Fatalf("minimum size not applied: %d", len(p))
	}
}
