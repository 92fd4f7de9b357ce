package simnet

import (
	"fmt"
	"sort"
	"strings"

	"macedon/internal/overlay"
	"macedon/internal/topology"
)

// Network dynamics: the runtime events a scenario can inject — link
// failures, link quality degradation, and network partitions. These are the
// conditions the paper's §1 names as the hard part of networked systems and
// the ones ModelNet scripts injected by rewriting pipe tables mid-run.

// Degradation worsens one pipe: latency is multiplied, and an extra
// independent loss process drops datagrams at the pipe entrance.
type Degradation struct {
	LatencyFactor float64 // ≥ 1; 0 means "leave latency alone"
	LossRate      float64 // extra per-hop drop probability in [0, 1)
}

// SetLinkDown fails (or restores) the bidirectional pipe containing the
// directed link l. While a pipe is down, datagrams entering it are dropped
// and new paths route around it: the cached path set and the routing oracle
// are invalidated, exactly what a static paths map cannot express.
func (n *Network) SetLinkDown(l topology.LinkID, down bool) {
	if down {
		n.blocked[l] = true
		n.blocked[l^1] = true
	} else {
		delete(n.blocked, l)
		delete(n.blocked, l^1)
	}
	n.invalidatePaths()
}

// LinkDown reports whether a directed link is currently failed.
func (n *Network) LinkDown(l topology.LinkID) bool { return n.blocked[l] }

// DegradeLink applies a quality degradation to both directions of the pipe
// containing l. Routing is unaffected (paths still traverse the pipe); only
// the emulated service worsens.
func (n *Network) DegradeLink(l topology.LinkID, d Degradation) {
	n.degraded[l] = d
	n.degraded[l^1] = d
}

// RestoreLink clears any degradation on the pipe containing l.
func (n *Network) RestoreLink(l topology.LinkID) {
	delete(n.degraded, l)
	delete(n.degraded, l^1)
}

// SetNodeAccessDown fails the access pipe of a client: the node stays up
// but is unreachable — unlike SetDown, routing learns the cut, and any
// datagram that would enter the pipe after the failure is dropped (bits
// already serialized onto the wire still arrive, as on a real cable).
func (n *Network) SetNodeAccessDown(addr overlay.Address, down bool) error {
	up, _, ok := n.graph.AccessLinks(addr)
	if !ok {
		return fmt.Errorf("simnet: address %v is not attached to the topology", addr)
	}
	n.SetLinkDown(up, down)
	return nil
}

// DegradeNodeAccess degrades the access pipe of a client (both directions).
func (n *Network) DegradeNodeAccess(addr overlay.Address, d Degradation) error {
	up, _, ok := n.graph.AccessLinks(addr)
	if !ok {
		return fmt.Errorf("simnet: address %v is not attached to the topology", addr)
	}
	n.DegradeLink(up, d)
	return nil
}

// RestoreNodeAccess clears degradation on a client's access pipe.
func (n *Network) RestoreNodeAccess(addr overlay.Address) error {
	up, _, ok := n.graph.AccessLinks(addr)
	if !ok {
		return fmt.Errorf("simnet: address %v is not attached to the topology", addr)
	}
	n.RestoreLink(up)
	return nil
}

// SetPartition installs a network partition: clients whose side numbers
// differ cannot exchange datagrams (dropped at origin, and in-flight
// datagrams are dropped on arrival). Clients absent from the map are
// unrestricted. The map is copied.
func (n *Network) SetPartition(sides map[overlay.Address]int) {
	n.sides = make(map[overlay.Address]int, len(sides))
	for a, s := range sides {
		n.sides[a] = s
	}
}

// ClearPartition heals any partition.
func (n *Network) ClearPartition() { n.sides = nil }

// Partitioned reports whether a partition separates two clients.
func (n *Network) Partitioned(a, b overlay.Address) bool {
	if len(n.sides) == 0 {
		return false
	}
	sa, oka := n.sides[a]
	sb, okb := n.sides[b]
	return oka && okb && sa != sb
}

// Detach clears the receive handler of an address's endpoint so a future
// node can attach there: the revive half of kill/revive churn. The old
// handler's owner must already be stopped.
func (n *Network) Detach(addr overlay.Address) error {
	ep, ok := n.eps[addr]
	if !ok {
		return fmt.Errorf("simnet: address %v is not attached to the topology", addr)
	}
	ep.recv = nil
	return nil
}

// invalidatePaths rebuilds the forwarding oracle around the current failed
// set and discards every cached path. Metrics oracles (Routes()) keep using
// the failure-free topology: stretch denominators stay stable.
//
// Oracles are cached per failure set in a small LRU: a scenario cycling
// through link failures (fail, heal, fail again) reuses the oracle — and
// its lazily built shortest-path trees — instead of rebuilding, while the
// bound keeps many distinct failure sets from accumulating tree memory.
func (n *Network) invalidatePaths() {
	n.pathGen++ // endpoints drop their cached routes lazily (Network.path)
	if len(n.blocked) == 0 {
		n.live = n.routes
		return
	}
	key := blockedKey(n.blocked)
	if r, ok := n.oracles.get(key); ok {
		n.live = r
		return
	}
	blocked := make(map[topology.LinkID]bool, len(n.blocked))
	for l := range n.blocked {
		blocked[l] = true
	}
	r := topology.NewRoutesExcluding(n.graph, func(l topology.LinkID) bool { return blocked[l] })
	r.SetTreeBudget(n.cfg.OracleTreeBudget)
	if n.oracles.put(key, r, n.cfg.OracleCacheSize) {
		n.oracleEvictions++
	}
	n.live = r
}

// blockedKey canonicalizes a failed-link set. Link ids are small ints; the
// sorted ids joined with commas make a stable map key.
func blockedKey(blocked map[topology.LinkID]bool) string {
	ids := make([]int, 0, len(blocked))
	for l := range blocked {
		ids = append(ids, int(l))
	}
	sort.Ints(ids)
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	return b.String()
}

// oracleCache is a tiny LRU of failure-set routing oracles.
type oracleCache struct {
	keys   []string
	values []*topology.Routes
}

func (c *oracleCache) get(key string) (*topology.Routes, bool) {
	for i, k := range c.keys {
		if k == key {
			// Move to front.
			v := c.values[i]
			copy(c.keys[1:i+1], c.keys[:i])
			copy(c.values[1:i+1], c.values[:i])
			c.keys[0], c.values[0] = key, v
			return v, true
		}
	}
	return nil, false
}

// put inserts at the front and reports whether an entry was evicted.
func (c *oracleCache) put(key string, r *topology.Routes, cap int) bool {
	c.keys = append([]string{key}, c.keys...)
	c.values = append([]*topology.Routes{r}, c.values...)
	if len(c.keys) > cap {
		c.keys = c.keys[:cap]
		c.values = c.values[:cap]
		return true
	}
	return false
}

// OracleCacheLen returns how many failure-set oracles are retained.
func (n *Network) OracleCacheLen() int { return len(n.oracles.keys) }

// OracleEvictions counts failure-set oracles discarded by the LRU bound.
func (n *Network) OracleEvictions() uint64 { return n.oracleEvictions }
