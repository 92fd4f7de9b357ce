package scenario

import (
	"fmt"
	"time"

	"macedon/internal/check"
	"macedon/internal/obs"
	"macedon/internal/overlay"
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
	// SeriesCap bounds each phase's series ring; 0 selects
	// obs.DefaultSeriesCap.
	SeriesCap int
}

// obsPlane is the op-level observability plane. Hot-path recording is
// shard-safe by construction: counters and histogram buckets accumulate by
// commutative atomic adds, per-op tallies live in atomic arrays indexed by
// op ID, spans go to per-shard buffers merged by a content total order, and
// the event log is only written by coordinator calls, so its record order is
// schedule order.
type obsPlane struct {
	reg     *obs.Registry
	events  *obs.EventLog
	spans   *obs.TraceSet
	sampler obs.KeySampler
	seed    int64

	opsInjected  map[OpKind]*obs.Counter
	opsSkipped   *obs.Counter
	opsDelivered *obs.Counter

	// Per-phase distribution histograms: latency is observed at delivery
	// (the value depends only on send and deliver instants, so bucket
	// increments commute); hops are observed at report time from the final
	// per-op tallies (a hop count read at delivery time would depend on
	// shard interleaving of concurrent forwards).
	latHist []*obs.Histogram
	hopHist []*obs.Histogram

	// Per-op atomic tallies, indexed by workload op ID.
	opFwd []obs.Counter
	opDel []obs.Counter

	// Per-phase time series, appended by Sample (a coordinator call).
	series []*obs.Series

	// addrIdx resolves a forward's next hop to a node index: span records
	// carry indices, not raw addresses. Built once, then only read.
	addrIdx map[overlay.Address]int
}

func newObsPlane(sched *Schedule, addrs []overlay.Address, shards int, cfg ObsConfig) *obsPlane {
	n := uint64(cfg.TraceSample)
	if n < 1 {
		n = 1
	}
	seed := sched.Scenario.Seed
	sampler := obs.KeySampler{Seed: uint64(seed), N: n}
	reg := obs.NewRegistry()
	o := &obsPlane{
		reg:     reg,
		events:  obs.NewEventLog(sampler, obs.LevelInfo),
		spans:   obs.NewTraceSet(shards),
		sampler: sampler,
		seed:    seed,

		opsInjected: map[OpKind]*obs.Counter{
			OpLookup:    reg.Counter("macedon_ops_total", "Workload operations injected.", obs.L("kind", "lookup")),
			OpMulticast: reg.Counter("macedon_ops_total", "Workload operations injected.", obs.L("kind", "multicast")),
		},
		opsSkipped:   reg.Counter("macedon_ops_skipped_total", "Workload operations skipped because the sender was down."),
		opsDelivered: reg.Counter("macedon_ops_delivered_total", "Workload deliveries (one per receiving member)."),

		latHist: make([]*obs.Histogram, len(sched.Phases)),
		hopHist: make([]*obs.Histogram, len(sched.Phases)),
		series:  make([]*obs.Series, len(sched.Phases)),
		addrIdx: make(map[overlay.Address]int, len(addrs)),
	}
	maxOp := 0
	for _, op := range sched.Ops {
		if (op.Kind == OpLookup || op.Kind == OpMulticast) && op.ID >= maxOp {
			maxOp = op.ID + 1
		}
	}
	o.opFwd = make([]obs.Counter, maxOp)
	o.opDel = make([]obs.Counter, maxOp)
	cols := append(append([]string(nil), cfg.SeriesLead...), "net_sent", "net_delivered", "ops_delivered")
	for pi, p := range sched.Phases {
		l := obs.L("phase", fmt.Sprintf("%d-%s", pi, p.Name))
		o.latHist[pi] = reg.Histogram("macedon_op_latency_seconds", "End-to-end operation latency.", obs.LatencyBuckets, l)
		o.hopHist[pi] = reg.Histogram("macedon_op_hops", "Mean overlay hops per delivery of an operation.", obs.HopBuckets, l)
		o.series[pi] = obs.NewSeries(cols, cfg.SeriesCap)
	}
	for i, a := range addrs {
		o.addrIdx[a] = i
	}
	return o
}

// Registry is the obs plane's metric registry, for a backend to mirror its
// own families into before Report; nil when the plane is off.
func (e *Engine) Registry() *obs.Registry {
	if e.obs == nil {
		return nil
	}
	return e.obs.reg
}

// Sample appends one time-series point to phase pi at phase-relative offset
// rel: the backend's lead values, then the network totals and delivered ops.
// A no-op with the obs plane off.
func (e *Engine) Sample(pi int, rel time.Duration, lead ...float64) {
	o := e.obs
	if o == nil {
		return
	}
	net := e.b.NetStats()
	o.series[pi].Append(rel, append(lead,
		float64(net.Sent), float64(net.Delivered), float64(o.opsDelivered.Load()))...)
}

// MirrorTotals stores the backend's counter totals as the macedon_engine_*
// and macedon_net_* families. A backend whose nodes serve those families
// themselves (live agents' expositions) merges those pages instead. A no-op
// with the obs plane off.
func (e *Engine) MirrorTotals() {
	o := e.obs
	if o == nil {
		return
	}
	ctl := e.b.Counters()
	o.reg.Counter("macedon_engine_msgs_sent_total", "Protocol messages sent by live nodes.").Store(ctl.MsgsSent)
	o.reg.Counter("macedon_engine_msgs_recv_total", "Protocol messages received by live nodes.").Store(ctl.MsgsRecv)
	o.reg.Counter("macedon_engine_bytes_sent_total", "Protocol bytes sent by live nodes.").Store(ctl.BytesSent)
	o.reg.Counter("macedon_engine_bytes_recv_total", "Protocol bytes received by live nodes.").Store(ctl.BytesRecv)
	net := e.b.NetStats()
	o.reg.Counter("macedon_net_sent_total", "Network frames sent.").Store(net.Sent)
	o.reg.Counter("macedon_net_delivered_total", "Network frames delivered.").Store(net.Delivered)
	o.reg.Counter("macedon_net_bytes_total", "Network payload bytes carried.").Store(net.Bytes)
	o.reg.Counter("macedon_net_dropped_total", "Network frames dropped (all causes).").Store(
		net.QueueDrops + net.RandomLoss + net.DownDrops + net.LinkDownDrops +
			net.DegradeLoss + net.PartitionDrops + net.NoRouteDrops)
}

// The coordinator-side recorders below are nil-safe so Apply reads straight
// through; deliver and forward are guarded by their callers instead, keeping
// the per-event path to one nil test.

// inject records a workload injection: the counter, the sampled event-log
// record, and the coordinator-side end of the op's trace.
func (o *obsPlane) inject(op Op, at time.Duration) {
	if o == nil {
		return
	}
	o.opsInjected[op.Kind].Inc()
	tid := obs.MintTraceID(o.seed, op.ID)
	o.events.EmitAt(at, uint64(op.ID), obs.LevelInfo, "inject",
		obs.F("kind", op.Kind), obs.F("op", op.ID), obs.F("node", op.Node),
		obs.F("trace", fmt.Sprintf("%016x", uint64(tid))))
	if o.sampler.Admit("span", uint64(op.ID)) {
		o.spans.Record(-1, obs.Span{Trace: tid, Op: op.ID, Kind: obs.SpanInject, Node: op.Node, Next: -1, At: at})
	}
}

// skip records a workload op whose sender was down.
func (o *obsPlane) skip(op Op, at time.Duration) {
	if o == nil {
		return
	}
	o.opsSkipped.Inc()
	o.events.EmitAt(at, uint64(op.ID), obs.LevelWarn, "skip",
		obs.F("kind", op.Kind), obs.F("op", op.ID), obs.F("node", op.Node))
}

// lifecycle records a sampled lifecycle event — kill, revive, partition,
// heal — keyed by node index (side-A size for a partition).
func (o *obsPlane) lifecycle(op Op, at time.Duration) {
	if o == nil {
		return
	}
	switch op.Kind {
	case OpPartition:
		o.events.EmitAt(at, uint64(op.SideA), obs.LevelInfo, "partition", obs.F("side_a", op.SideA))
	case OpHeal:
		o.events.EmitAt(at, 0, obs.LevelInfo, "heal")
	default:
		o.events.EmitAt(at, uint64(op.Node), obs.LevelInfo, op.Kind.String(), obs.F("node", op.Node))
	}
}

// violation records an invariant violation at warn level, keyed by the
// offending node so the sampled population is the same on both backends,
// like every other event.
func (o *obsPlane) violation(at time.Duration, pi int, vi check.Violation) {
	if o == nil {
		return
	}
	key := vi.Node
	if key < 0 {
		key = 0
	}
	o.events.EmitAt(at, uint64(key), obs.LevelWarn, "check_violation",
		obs.F("checker", vi.Checker), obs.F("node", vi.Node),
		obs.F("phase", pi), obs.F("detail", fmt.Sprintf("%q", vi.Detail)))
}

// forward runs on the forwarding node's shard: atomic tally plus a sampled
// span.
func (o *obsPlane) forward(op, node int, next overlay.Address, shard int, at time.Duration) {
	o.opFwd[op].Inc()
	if o.sampler.Admit("span", uint64(op)) {
		nextIdx, ok := o.addrIdx[next]
		if !ok {
			nextIdx = -1
		}
		o.spans.Record(shard, obs.Span{
			Trace: obs.MintTraceID(o.seed, op), Op: op,
			Kind: obs.SpanForward, Node: node, Next: nextIdx, At: at,
		})
	}
}

// deliver runs on the receiving node's shard. The latency depends only on
// the op's send and deliver instants, so observing it here is deterministic
// at any shard count.
func (o *obsPlane) deliver(op, node, shard, phase int, at, latency time.Duration) {
	o.opDel[op].Inc()
	o.opsDelivered.Inc()
	o.latHist[phase].Observe(latency.Seconds())
	if o.sampler.Admit("span", uint64(op)) {
		o.spans.Record(shard, obs.Span{
			Trace: obs.MintTraceID(o.seed, op), Op: op,
			Kind: obs.SpanDeliver, Node: node, Next: -1, At: at,
		})
	}
}

// finish runs once at report time, after the run ended: hop distributions
// from the final per-op tallies, the alive gauge, and the report sections.
func (o *obsPlane) finish(e *Engine, rep *Report) {
	for op := range o.opDel {
		del := o.opDel[op].Load()
		if del == 0 {
			continue
		}
		fwd := o.opFwd[op].Load()
		o.hopHist[e.acct.sent[op].phase].Observe(float64(fwd+del) / float64(del))
	}
	o.reg.Gauge("macedon_nodes_alive", "Nodes currently alive.").Set(float64(e.Live()))
	for pi := range rep.Phases {
		rep.Phases[pi].Obs = &PhaseObs{
			Latency: o.latHist[pi].Snapshot(),
			Hops:    o.hopHist[pi].Snapshot(),
			Series:  o.series[pi].Snapshot(),
		}
	}
	rep.Obs = &ObsReport{
		Exposition: o.reg.Text(),
		Events:     o.events.Lines(),
		Spans:      o.spans.Lines(),
	}
}
