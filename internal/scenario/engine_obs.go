package scenario

import (
	"fmt"
	"time"

	"macedon/internal/check"
	"macedon/internal/obs"
)

// ObsConfig configures the engine's observability plane.
type ObsConfig struct {
	// TraceSample keeps 1-in-N operation traces and event-log records,
	// decided by key hash on the scenario seed so every shard count — and
	// both backends running one scenario — sample the same population. 0 or
	// 1 keeps everything.
	TraceSample int
	// SeriesLead names the backend's own leading time-series columns; the
	// engine appends net_sent, net_delivered and ops_delivered. Sample takes
	// one value per lead column.
	SeriesLead []string
}

// obsBooks is the op-level observability section of the accounting; nil
// with the plane off. It has the shape of the rest: per-shard plain values
// that Deliver and Forward write on their own shard, coordinator-written
// values beside the trace. It records only what the grid and the phase rows
// do not already hold — injected, skipped and delivered totals, latency sums
// and counts are read from those at report time — and nothing in it is a
// metric handle: Report builds the registry from the books each time it is
// called, so a checkpoint carries the whole plane and a second Report
// repeats the first.
type obsBooks struct {
	shards []*obsShard
	// spans holds the inject spans; events the sampled event records, in
	// schedule order; series one ring per phase over cols.
	spans  []obs.Span
	events []obs.Record
	series []*obs.Series
	cols   []string
}

// obsShard is one shard's slice of the books.
type obsShard struct {
	// fwd and del tally forwards and deliveries per workload op ID: the hop
	// distribution is drawn from the final tallies at report time (a hop
	// count read at delivery would depend on how concurrent forwards on
	// other shards interleave).
	fwd, del []uint32
	// lat counts deliveries per [phase][latency bucket]. A latency depends
	// only on the op's send and deliver instants, so the counts are the same
	// at any shard count.
	lat   [][]uint64
	spans []obs.Span
}

// clone deep-copies the books with the phase-indexed arrays resized to
// phases and the op-indexed ones to ops.
func (o *obsBooks) clone(phases, ops int) *obsBooks {
	c := *o
	c.shards = make([]*obsShard, len(o.shards))
	for i, sh := range o.shards {
		n := &obsShard{
			fwd:   make([]uint32, ops),
			del:   make([]uint32, ops),
			lat:   make([][]uint64, phases),
			spans: append([]obs.Span(nil), sh.spans...),
		}
		copy(n.fwd, sh.fwd)
		copy(n.del, sh.del)
		for pi := range n.lat {
			n.lat[pi] = make([]uint64, len(obs.LatencyBuckets)+1)
			if pi < len(sh.lat) {
				copy(n.lat[pi], sh.lat[pi])
			}
		}
		c.shards[i] = n
	}
	c.spans = append([]obs.Span(nil), o.spans...)
	c.events = append([]obs.Record(nil), o.events...)
	c.series = make([]*obs.Series, phases)
	for pi := range c.series {
		if pi < len(o.series) {
			c.series[pi] = o.series[pi].Clone()
		} else {
			c.series[pi] = obs.NewSeries(o.cols, obs.DefaultSeriesCap)
		}
	}
	return &c
}

// newObsBooks builds the empty books of a run.
func newObsBooks(sched *Schedule, shards int, cfg ObsConfig) *obsBooks {
	empty := &obsBooks{
		shards: make([]*obsShard, shards),
		cols:   append(append([]string(nil), cfg.SeriesLead...), "net_sent", "net_delivered", "ops_delivered"),
	}
	for i := range empty.shards {
		empty.shards[i] = &obsShard{}
	}
	return empty.clone(len(sched.Phases), sched.workloadOps())
}

// workloadOps is the number of workload op IDs the schedule issues; Compile
// numbers them densely from zero.
func (s *Schedule) workloadOps() int { return s.Lookups + s.Multicasts }

// Sample appends one time-series point to phase pi at phase-relative offset
// rel: the backend's lead values, then the network totals and delivered ops.
// A no-op with the obs plane off.
func (e *Engine) Sample(pi int, rel time.Duration, lead ...float64) {
	o := e.acct.obs
	if o == nil {
		return
	}
	net := e.b.NetStats()
	delivered := 0
	for _, row := range e.acct.grid {
		for _, c := range row {
			delivered += c.delivered
		}
	}
	o.series[pi].Append(rel, append(lead,
		float64(net.Sent), float64(net.Delivered), float64(delivered))...)
}

// MirrorTotals stores the backend's counter totals in reg as the
// macedon_engine_* and macedon_net_* families, for a backend's Families
// hook. A backend whose nodes serve those families themselves (live agents'
// expositions) merges those pages instead.
func (e *Engine) MirrorTotals(reg *obs.Registry) {
	ctl := e.b.Counters()
	reg.Counter("macedon_engine_msgs_sent_total", "Protocol messages sent by live nodes.").Store(ctl.MsgsSent)
	reg.Counter("macedon_engine_msgs_recv_total", "Protocol messages received by live nodes.").Store(ctl.MsgsRecv)
	reg.Counter("macedon_engine_bytes_sent_total", "Protocol bytes sent by live nodes.").Store(ctl.BytesSent)
	reg.Counter("macedon_engine_bytes_recv_total", "Protocol bytes received by live nodes.").Store(ctl.BytesRecv)
	net := e.b.NetStats()
	reg.Counter("macedon_net_sent_total", "Network frames sent.").Store(net.Sent)
	reg.Counter("macedon_net_delivered_total", "Network frames delivered.").Store(net.Delivered)
	reg.Counter("macedon_net_bytes_total", "Network payload bytes carried.").Store(net.Bytes)
	reg.Counter("macedon_net_dropped_total", "Network frames dropped (all causes).").Store(
		net.QueueDrops + net.RandomLoss + net.DownDrops + net.LinkDownDrops +
			net.DegradeLoss + net.PartitionDrops + net.NoRouteDrops)
}

// The coordinator-side recorders below are no-ops with the plane off so
// Apply reads straight through; Deliver and Forward test for the books
// themselves, keeping the per-event path to one nil test.

// event keeps one sampled event record. key is the event's stable sampling
// key (an op ID, a node index), so the kept population is the same at any
// shard count and on both backends.
func (e *Engine) event(at time.Duration, key uint64, lvl obs.Level, name string, fields ...obs.Field) {
	if e.sampler.Admit(name, key) {
		o := e.acct.obs
		o.events = append(o.events, obs.Record{At: at, Level: lvl, Name: name, Fields: fields})
	}
}

// recordInject records a workload injection: the sampled event record and
// the coordinator-side end of the op's trace.
func (e *Engine) recordInject(op Op, at time.Duration) {
	if e.acct.obs == nil {
		return
	}
	tid := obs.MintTraceID(e.sched.Scenario.Seed, op.ID)
	e.event(at, uint64(op.ID), obs.LevelInfo, "inject",
		obs.F("kind", op.Kind), obs.F("op", op.ID), obs.F("node", op.Node),
		obs.F("trace", fmt.Sprintf("%016x", uint64(tid))))
	if e.sampler.Admit("span", uint64(op.ID)) {
		o := e.acct.obs
		o.spans = append(o.spans, obs.Span{Trace: tid, Op: op.ID, Kind: obs.SpanInject, Node: op.Node, Next: -1, At: at})
	}
}

// recordSkip records a workload op whose sender was down.
func (e *Engine) recordSkip(op Op, at time.Duration) {
	if e.acct.obs == nil {
		return
	}
	e.event(at, uint64(op.ID), obs.LevelWarn, "skip",
		obs.F("kind", op.Kind), obs.F("op", op.ID), obs.F("node", op.Node))
}

// recordLifecycle records a sampled lifecycle event — kill, revive,
// partition, heal — keyed by node index (side-A size for a partition).
func (e *Engine) recordLifecycle(op Op, at time.Duration) {
	if e.acct.obs == nil {
		return
	}
	switch op.Kind {
	case OpPartition:
		e.event(at, uint64(op.SideA), obs.LevelInfo, "partition", obs.F("side_a", op.SideA))
	case OpHeal:
		e.event(at, 0, obs.LevelInfo, "heal")
	default:
		e.event(at, uint64(op.Node), obs.LevelInfo, op.Kind.String(), obs.F("node", op.Node))
	}
}

// recordViolation records an invariant violation at warn level, keyed by
// the offending node so the sampled population is the same on both
// backends, like every other event.
func (e *Engine) recordViolation(at time.Duration, pi int, vi check.Violation) {
	if e.acct.obs == nil {
		return
	}
	key := vi.Node
	if key < 0 {
		key = 0
	}
	e.event(at, uint64(key), obs.LevelWarn, "check_violation",
		obs.F("checker", vi.Checker), obs.F("node", vi.Node),
		obs.F("phase", pi), obs.F("detail", fmt.Sprintf("%q", vi.Detail)))
}

// span appends a forward or deliver span to the recording shard's buffer
// when the op is in the sampled population.
func (e *Engine) span(sh *obsShard, kind obs.SpanKind, op, node, next int, at time.Duration) {
	if e.sampler.Admit("span", uint64(op)) {
		sh.spans = append(sh.spans, obs.Span{
			Trace: obs.MintTraceID(e.sched.Scenario.Seed, op), Op: op,
			Kind: kind, Node: node, Next: next, At: at,
		})
	}
}

// obsReport assembles the report's obs sections from the books: the op
// families from the phase rows (already folded over the grid), the latency
// histograms from the per-shard bucket counts, the hop histograms from the
// final per-op tallies, and whatever families the backend adds.
func (e *Engine) obsReport(rep *Report, rows []PhaseTotals) {
	o := e.acct.obs
	reg := obs.NewRegistry()
	var lookups, multicasts, skipped, delivered uint64
	np := len(e.sched.Phases)
	lat := make([]*obs.Histogram, np)
	hops := make([]*obs.Histogram, np)
	for pi, p := range e.sched.Phases {
		row := rows[pi]
		// A phase has one workload, so its kind is the kind of every op the
		// phase sent.
		if w := e.sched.Scenario.Phases[pi].Workload; w != nil && w.Kind == WlMulticast {
			multicasts += uint64(row.Sent)
		} else {
			lookups += uint64(row.Sent)
		}
		skipped += uint64(row.Skipped)
		delivered += uint64(row.Delivered)

		l := obs.L("phase", fmt.Sprintf("%d-%s", pi, p.Name))
		lat[pi] = reg.Histogram("macedon_op_latency_seconds", "End-to-end operation latency.", obs.LatencyBuckets, l)
		hops[pi] = reg.Histogram("macedon_op_hops", "Mean overlay hops per delivery of an operation.", obs.HopBuckets, l)
		counts := make([]uint64, len(obs.LatencyBuckets)+1)
		for _, sh := range o.shards {
			for i, c := range sh.lat[pi] {
				counts[i] += c
			}
		}
		lat[pi].Merge(counts, uint64(row.LatSum))
	}
	for op := 0; op < e.sched.workloadOps(); op++ {
		var fwd, del uint64
		for _, sh := range o.shards {
			fwd += uint64(sh.fwd[op])
			del += uint64(sh.del[op])
		}
		if del > 0 {
			hops[e.acct.sent[op].phase].Observe(float64(fwd+del) / float64(del))
		}
	}
	const opsHelp = "Workload operations injected."
	reg.Counter("macedon_ops_total", opsHelp, obs.L("kind", "lookup")).Store(lookups)
	reg.Counter("macedon_ops_total", opsHelp, obs.L("kind", "multicast")).Store(multicasts)
	reg.Counter("macedon_ops_skipped_total", "Workload operations skipped because the sender was down.").Store(skipped)
	reg.Counter("macedon_ops_delivered_total", "Workload deliveries (one per receiving member).").Store(delivered)
	reg.Gauge("macedon_nodes_alive", "Nodes currently alive.").Set(float64(e.Live()))
	e.b.Families(reg)

	for pi := range rep.Phases {
		rep.Phases[pi].Obs = &PhaseObs{
			Latency: lat[pi].Snapshot(),
			Hops:    hops[pi].Snapshot(),
			Series:  o.series[pi].Snapshot(),
		}
	}
	rep.Obs = &ObsReport{Exposition: reg.Text()}
	for _, r := range o.events {
		rep.Obs.Events = append(rep.Obs.Events, r.String())
	}
	bufs := [][]obs.Span{o.spans}
	for _, sh := range o.shards {
		bufs = append(bufs, sh.spans)
	}
	for _, s := range obs.MergeSpans(bufs...) {
		rep.Obs.Spans = append(rep.Obs.Spans, s.String())
	}
}
