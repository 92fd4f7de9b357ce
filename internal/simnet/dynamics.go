package simnet

import (
	"fmt"
	"slices"

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
// and new paths route around it, exactly what a static paths map cannot
// express. Setting a pipe to the state it already has changes nothing.
func (n *Network) SetLinkDown(l topology.LinkID, down bool) {
	if n.blocked[l] == down {
		return
	}
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

// invalidatePaths makes forwarding follow the failed set as it now stands.
// Every shard's route table drops its routes, lazily, by generation. The oracle
// keeps its trees unless the failed core links changed: a tree never touches
// an access link (topology.Routes), so failing or healing an access pipe —
// the only kind a scenario can — costs the generation bump and nothing else,
// and a Restore to an equal core set keeps what the branch before it built.
// Metrics oracles (Routes()) keep using the failure-free topology: stretch
// denominators stay stable.
func (n *Network) invalidatePaths() {
	n.pathGen++ // see Network.path
	var core []topology.LinkID
	for l := range n.blocked {
		if !n.graph.IsAccessLink(l) {
			core = append(core, l)
		}
	}
	slices.Sort(core)
	if !slices.Equal(core, n.liveCore) {
		n.live.Flush()
		n.liveCore = core
	}
}
