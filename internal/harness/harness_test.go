package harness

import (
	"testing"
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
