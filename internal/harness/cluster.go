// Package harness assembles MACEDON experiments: a topology, the simnet
// emulator, a set of overlay nodes running protocol stacks, and the
// scenario engine's emulated backend, which runs every declarative scenario
// and sweep — the paper's Figures 8–12 among them (examples/figures). It
// plays the role of the paper's ModelNet deployment scripts and evaluation
// tools.
package harness

import (
	"fmt"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
	"macedon/internal/simnet"
	"macedon/internal/statecopy"
	"macedon/internal/topology"
)

// ClusterConfig describes an emulated deployment.
type ClusterConfig struct {
	// Nodes is the number of overlay clients.
	Nodes int
	// Routers sizes the generated INET topology (ignored when Graph is
	// given). Defaults to max(4*Nodes, 100).
	Routers int
	// Seed drives every random choice in the experiment.
	Seed int64
	// Shards is the number of parallel event-loop shards. 0 or 1 selects
	// the sequential loop; any value produces byte-identical results (see
	// docs/simnet.md), larger values trade synchronization overhead for
	// parallelism on big populations.
	Shards int
	// Partitioner selects the vertex→shard assignment strategy:
	// simnet.PartitionerStriped (the default, also "") or
	// simnet.PartitionerLatency, which clusters low-latency cliques onto one
	// shard to widen the conservative lookahead window. Either choice
	// produces byte-identical traces; only wall-clock scaling differs.
	Partitioner string

	// Graph optionally supplies a prebuilt topology with clients attached
	// (addresses Addrs). When nil an INET topology is generated and clients
	// are attached to stub routers.
	Graph *topology.Graph
	Addrs []overlay.Address

	// Sim tunes the emulator (loss rate).
	Sim simnet.Config

	// Node-level knobs passed through to core.Config.
	HeartbeatAfter time.Duration
	FailAfter      time.Duration
	Sweep          time.Duration
}

// Cluster is a running emulated deployment.
type Cluster struct {
	cfg   ClusterConfig
	Sched *simnet.Scheduler
	Net   *simnet.Network
	Graph *topology.Graph
	Addrs []overlay.Address
	Nodes map[overlay.Address]*core.Node
}

// NewCluster builds the topology and emulator but spawns no nodes yet:
// experiments control join timing (Figure 10 stages 1000 joins over time).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 && cfg.Graph == nil {
		return nil, fmt.Errorf("harness: cluster needs nodes")
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	switch cfg.Partitioner {
	case "", simnet.PartitionerStriped, simnet.PartitionerLatency:
	default:
		return nil, fmt.Errorf("harness: unknown partitioner %q (want %q or %q)",
			cfg.Partitioner, simnet.PartitionerStriped, simnet.PartitionerLatency)
	}
	sched := simnet.NewSharded(cfg.Seed, shards)
	g := cfg.Graph
	addrs := cfg.Addrs
	if g == nil {
		var err error
		g, addrs, err = buildGraph(cfg.Nodes, cfg.Routers, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
	} else if len(addrs) == 0 {
		addrs = g.Clients()
	}
	simCfg := cfg.Sim
	if cfg.Partitioner != "" {
		simCfg.Partitioner = cfg.Partitioner
	}
	net := simnet.New(sched, g, simCfg)
	return &Cluster{
		cfg:   cfg,
		Sched: sched,
		Net:   net,
		Graph: g,
		Addrs: addrs,
		Nodes: make(map[overlay.Address]*core.Node),
	}, nil
}

// buildGraph generates the topology and attaches clients: with sites > 0,
// the NICE site matrix (topology.NICESites) with nodes/sites clients a
// site, in address order; otherwise the INET topology, with clients
// attached exactly the way NewCluster always has. The address assignment
// is a pure function of (nodes, routers, sites, seed).
func buildGraph(nodes, routers, sites int, seed int64) (*topology.Graph, []overlay.Address, error) {
	if sites > 0 {
		sm := topology.NICESites(sites)
		g, gws, err := topology.SiteMatrix(sm)
		if err != nil {
			return nil, nil, err
		}
		addrs, _ := topology.AttachSiteClients(g, gws, nodes/sites, 1, sm)
		return g, addrs, nil
	}
	if routers <= 0 {
		routers = 4 * nodes
		if routers < 100 {
			routers = 100
		}
	}
	g, err := topology.INET(topology.DefaultINET(routers, seed))
	if err != nil {
		return nil, nil, err
	}
	addrs := topology.AttachClients(g, nodes, 1, topology.DefaultAccess, seed+1)
	return g, addrs, nil
}

// TopologyAddrs returns the client addresses the emulated cluster for the
// same (nodes, routers, seed) assigns. `macedon deploy` gives live node i
// the same overlay address — and therefore the same hash key — as emulated
// node i, so a live run and a sim run of one scenario route the identical
// key space (the live-vs-sim conformance harness depends on it).
func TopologyAddrs(nodes, routers int, seed int64) ([]overlay.Address, error) {
	_, addrs, err := buildGraph(nodes, routers, 0, seed)
	return addrs, err
}

// Bootstrap returns the conventional bootstrap node: the first client.
func (c *Cluster) Bootstrap() overlay.Address { return c.Addrs[0] }

// NodeSub returns the shard-bound substrate of the i-th node's endpoint:
// its clock reads the owning shard's virtual time, which is the correct
// timestamp source inside delivery callbacks of a sharded run.
func (c *Cluster) NodeSub(i int) *simnet.NodeSubstrate {
	ns, err := c.Net.NodeNet(c.Addrs[i])
	if err != nil {
		panic(fmt.Sprintf("harness: node substrate %d: %v", i, err))
	}
	return ns
}

// Spawn creates and starts the i-th node with the given stack, immediately,
// at the current virtual time. The node runs on its endpoint's event shard.
func (c *Cluster) Spawn(i int, stack []core.Factory) (*core.Node, error) {
	n, err := c.buildNode(i, stack)
	if err != nil {
		return nil, err
	}
	c.Nodes[c.Addrs[i]] = n
	return n, nil
}

// buildNode constructs and starts the i-th node without registering it in
// the cluster map. Construction only touches state owned by the node's own
// event shard (its endpoint, its access pipe, its PRNG), which is what makes
// SpawnBatch's per-shard parallel construction race-free and deterministic.
func (c *Cluster) buildNode(i int, stack []core.Factory) (*core.Node, error) {
	addr := c.Addrs[i]
	sub, err := c.Net.NodeNet(addr)
	if err != nil {
		return nil, err
	}
	n, err := core.NewNode(core.Config{
		Addr:           addr,
		Net:            sub,
		Stack:          stack,
		Bootstrap:      c.Bootstrap(),
		Seed:           c.cfg.Seed + int64(i)*7919 + 13,
		HeartbeatAfter: c.cfg.HeartbeatAfter,
		FailAfter:      c.cfg.FailAfter,
		Sweep:          c.cfg.Sweep,
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}

// spawnBatchThreshold is the population below which SpawnBatch constructs
// sequentially: goroutine fan-out only pays for itself on real herds.
const spawnBatchThreshold = 8

// SpawnBatch spawns the given node indices at the current virtual time,
// constructing them in parallel with one worker per event shard. The result
// is byte-identical to spawning the same indices sequentially in order:
// construction only mutates per-endpoint and per-shard state (actor
// sequence counters, link serialization state, the shard's own heap), each
// worker processes its shard's nodes in index order, and what a worker
// schedules onto another shard is merged after the join (Scheduler.Fanout)
// — in any order, because event execution order is defined by
// deterministic keys, not insertion order. This is what breaks
// up the t=0 spawn herd: a 10k-node immediate join used to construct all
// nodes serially inside one epoch barrier.
func (c *Cluster) SpawnBatch(idx []int, stack []core.Factory) error {
	if len(idx) < spawnBatchThreshold || c.Sched.Shards() < 2 {
		for _, i := range idx {
			if _, err := c.Spawn(i, stack); err != nil {
				return err
			}
		}
		return nil
	}
	// Group by shard, preserving index order within each shard. NodeSub is
	// called on the coordinator so lazy substrate creation stays unshared.
	byShard := make(map[int][]int)
	var shards []int
	for _, i := range idx {
		sh := c.NodeSub(i).Shard()
		if _, ok := byShard[sh]; !ok {
			shards = append(shards, sh)
		}
		byShard[sh] = append(byShard[sh], i)
	}
	// Workers write disjoint slots: built by node index, errs by shard.
	built := make([]*core.Node, len(c.Addrs))
	errs := make([]error, c.Sched.Shards())
	c.Sched.Fanout(shards, func(sh int) {
		for _, i := range byShard[sh] {
			n, err := c.buildNode(i, stack)
			if err != nil {
				errs[sh] = fmt.Errorf("harness: batch spawn %d: %w", i, err)
				return
			}
			built[i] = n
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, i := range idx {
		c.Nodes[c.Addrs[i]] = built[i]
	}
	return nil
}

// SpawnAll spawns every node now, bootstrap first.
func (c *Cluster) SpawnAll(stackFor func(i int) []core.Factory) error {
	for i := range c.Addrs {
		if _, err := c.Spawn(i, stackFor(i)); err != nil {
			return err
		}
	}
	return nil
}

// SpawnAt schedules the i-th node's creation at a virtual-time offset from
// now: staggered joins.
func (c *Cluster) SpawnAt(i int, stack []core.Factory, at time.Duration) {
	c.Sched.After(at, func() {
		if _, err := c.Spawn(i, stack); err != nil {
			panic(fmt.Sprintf("harness: spawn %d: %v", i, err))
		}
	})
}

// Kill emulates a host crash of the i-th node: the process stops, its
// address blackholes, and its endpoint detaches so Revive can respawn
// there. Safe to call for a node that never spawned.
func (c *Cluster) Kill(i int) {
	addr := c.Addrs[i]
	if n := c.Nodes[addr]; n != nil {
		n.Stop()
		delete(c.Nodes, addr)
	}
	_ = c.Net.SetDown(addr, true)
	_ = c.Net.Detach(addr)
}

// Revive respawns a killed node with a fresh protocol stack — a cold
// rejoin, as a rebooted host would perform.
func (c *Cluster) Revive(i int, stack []core.Factory) (*core.Node, error) {
	addr := c.Addrs[i]
	if c.Nodes[addr] != nil {
		return nil, fmt.Errorf("harness: node %d (%v) is already running", i, addr)
	}
	_ = c.Net.SetDown(addr, false)
	return c.Spawn(i, stack)
}

// RunFor advances virtual time.
func (c *Cluster) RunFor(d time.Duration) { c.Sched.RunFor(d) }

// Node returns the node at an address (nil if not spawned).
func (c *Cluster) Node(addr overlay.Address) *core.Node { return c.Nodes[addr] }

// StopAll stops every node and releases the scheduler's shard workers.
func (c *Cluster) StopAll() {
	for _, n := range c.Nodes {
		n.Stop()
	}
	c.Sched.Close()
}

// Checkpoint is a restorable capture of a whole running deployment: the
// event scheduler, the emulated network, and every node's engine, transport,
// and protocol state. See docs/sweeps.md.
type Checkpoint struct {
	sched *simnet.SchedulerSnapshot
	net   *simnet.NetworkSnapshot
	nodes *statecopy.Image
}

// Checkpoint captures the deployment at the current virtual instant. It must
// be called from the coordinating goroutine between RunFor windows — the
// same quiescent points every other coordinator-side operation uses. The
// checkpoint stays valid for the cluster's lifetime and can be restored any
// number of times.
func (c *Cluster) Checkpoint() *Checkpoint {
	return &Checkpoint{
		sched: c.Sched.Snapshot(),
		net:   c.Net.Snapshot(),
		nodes: statecopy.Capture(&c.Nodes),
	}
}

// Restore rewinds the deployment to a checkpoint taken on this cluster:
// virtual time, event heaps, packets in flight, link queues, node membership
// and all node state return to the captured instant, byte-identically — a
// branch executed after the restore produces the same event trace as one
// executed right after the capture (fork determinism, gated by the golden
// corpus).
func (c *Cluster) Restore(cp *Checkpoint) {
	c.Sched.Restore(cp.sched)
	c.Net.Restore(cp.net)
	cp.nodes.Restore()
}
