// Package overcast implements Overcast [13] as a MACEDON agent, following
// the five-state FSM the paper's Figure 1 draws: init → joining → joined,
// with the periodic Q timer driving a probing episode (joined → probed) in
// which the node asks its grandparent and siblings to send equally spaced
// probe trains (their Z timer), estimates the bandwidth from each, and
// relocates to a better parent when one exists. The transport set is the
// paper's §3.1 Overcast example verbatim: SWP HIGHEST, TCP HIGH/MED/LOW,
// UDP BEST_EFFORT.
package overcast

import (
	"bytes"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

// Params tunes the protocol.
type Params struct {
	// ProbeRequestPeriod is the Q timer: how often a joined node
	// re-evaluates its position (default 10 s).
	ProbeRequestPeriod time.Duration
	// ProbeSpacing is the Z timer: the gap between probes in a train
	// (default 20 ms).
	ProbeSpacing time.Duration
	// ProbesPerTrain is the train length (default 10).
	ProbesPerTrain int
	// ProbeSize is the padding per probe (default 1000 bytes).
	ProbeSize int
	// ProbeTimeout bounds a probing episode (default 5 s).
	ProbeTimeout time.Duration
	// MaxChildren bounds fan-out (default 6).
	MaxChildren int
	// MoveGain is the bandwidth-improvement factor required to relocate
	// (default 1.2: move only for a 20% better estimate).
	MoveGain float64
	// JoinRetryPeriod re-sends a join request that got no reply (joins ride
	// best-effort UDP; without a retry a lost join orphans the node
	// forever, which kill/revive churn reliably provokes). Default 2 s.
	JoinRetryPeriod time.Duration
}

func (p *Params) setDefaults() {
	if p.ProbeRequestPeriod <= 0 {
		p.ProbeRequestPeriod = 10 * time.Second
	}
	if p.ProbeSpacing <= 0 {
		p.ProbeSpacing = 20 * time.Millisecond
	}
	if p.ProbesPerTrain <= 0 {
		p.ProbesPerTrain = 10
	}
	if p.ProbeSize <= 0 {
		p.ProbeSize = 1000
	}
	if p.ProbeTimeout <= 0 {
		p.ProbeTimeout = 5 * time.Second
	}
	if p.MaxChildren <= 0 {
		p.MaxChildren = 6
	}
	if p.MoveGain <= 1 {
		p.MoveGain = 1.2
	}
	if p.JoinRetryPeriod <= 0 {
		p.JoinRetryPeriod = 2 * time.Second
	}
}

// New returns a factory for Overcast agents.
func New(p Params) core.Factory {
	p.setDefaults()
	return func() core.Agent { return &Protocol{p: p} }
}

// Protocol is one node's Overcast instance. The field names mirror the
// state_variables block of the paper's overcast.mac excerpt (§3.1): papa,
// kids, grandpa, brothers, probed_node, probes_to_send.
type Protocol struct {
	p Params

	self overlay.Address
	root overlay.Address

	grandpa  overlay.Address
	brothers []overlay.Address
	rootPath []overlay.Address // self first, root last

	// Candidate root paths from the latest probe replies: a candidate whose
	// path contains us is our descendant and must never become our parent.
	candPaths map[overlay.Address][]overlay.Address

	// Probing-episode state (as the probed node).
	awaiting  int // replies still expected ("count" in Figure 1)
	estimates map[overlay.Address]bandwidthEstimate
	moves     uint64

	// Probing-train state (as the prober).
	probedNode   overlay.Address // who we are sending probes to
	probesToSend int             // "# probes" in Figure 1
	firstArrival map[overlay.Address]time.Time
	lastArrival  map[overlay.Address]time.Time
	probesSeen   map[overlay.Address]int

	// Multicast dedup: relocation can transiently double-parent a node.
	// Keys carry the source's incarnation stamp so a restarted root (whose
	// Seq counter resets to 0) is never deduplicated against the previous
	// incarnation's stream — the TTL-class bug kill/revive churn exposes.
	// curInc/curHigh track the newest incarnation and its stream head so
	// window pruning is always judged against the live stream, never
	// against a stale backlog replay.
	inc      uint64
	nextSeq  uint32
	seenSeqs map[seqKey]bool
	curInc   uint64
	curHigh  uint32

	// Overcast is *reliable* multicast [13]: parents keep a short log and
	// replay it to newly adopted children so moves do not lose packets.
	backlog []*mdata
}

// backlogWindow bounds the replay log.
const backlogWindow = 64

// seqKey identifies one multicast packet across source restarts.
type seqKey struct {
	inc uint64
	seq uint32
}

type bandwidthEstimate struct {
	bitsPerSec float64
	delay      time.Duration
}

// ProtocolName implements the engine's naming hook.
func (o *Protocol) ProtocolName() string { return "overcast" }

// Moves counts parent relocations (for experiments).
func (o *Protocol) Moves() uint64 { return o.moves }

// Grandparent returns the currently known grandparent.
func (o *Protocol) Grandparent() overlay.Address { return o.grandpa }

// Define declares the Overcast FSM: the Go equivalent of overcast.mac and
// of Figure 1.
func (o *Protocol) Define(d *core.Def) {
	d.States("joining", "joined", "probing", "probed")
	d.Addressing(core.IPAddressing)

	// The transports block of §3.1, verbatim.
	d.SWPTransport("HIGHEST")
	d.TCPTransport("HIGH")
	d.TCPTransport("MED")
	d.TCPTransport("LOW")
	d.UDPTransport("BEST_EFFORT")

	d.Message("join", func() overlay.Message { return &joinMsg{} }, "BEST_EFFORT")
	d.Message("join_reply", func() overlay.Message { return &joinReply{} }, "HIGHEST")
	d.Message("remove", func() overlay.Message { return &removeMsg{} }, "HIGH")
	d.Message("probe_request", func() overlay.Message { return &probeRequest{} }, "HIGHEST")
	d.Message("probe", func() overlay.Message { return &probe{} }, "BEST_EFFORT")
	d.Message("probe_reply", func() overlay.Message { return &probeReply{} }, "HIGHEST")
	d.Message("family", func() overlay.Message { return &familyUpdate{} }, "MED")
	d.Message("mdata", func() overlay.Message { return &mdata{} }, "MED")

	d.Timer("probe_requester", o.p.ProbeRequestPeriod) // timer Q
	d.Timer("keep_probing", o.p.ProbeSpacing)          // timer Z
	d.Timer("probe_timeout", o.p.ProbeTimeout)
	d.Timer("join_retry", o.p.JoinRetryPeriod)

	d.NeighborList("papa", 1, true)
	d.NeighborList("kids", o.p.MaxChildren, true)

	d.OnAPI(overlay.APIInit, core.In(core.StateInit), core.Write, o.apiInit)
	d.OnAPI(overlay.APIMulticast, core.Not(core.In(core.StateInit, "joining")), core.Read, o.apiMulticast)
	d.OnAPI(overlay.APIError, core.Any, core.Write, o.apiError)

	// The paper's example transition: join reception scoped !(joining|init).
	d.OnRecv("join", core.Not(core.In("joining", core.StateInit)), core.Write, o.recvJoin)
	d.OnRecv("join_reply", core.In("joining"), core.Write, o.recvJoinReply)
	d.OnRecv("remove", core.Any, core.Write, o.recvRemove)
	d.OnRecv("probe_request", core.Not(core.In(core.StateInit)), core.Write, o.recvProbeRequest)
	d.OnRecv("probe", core.In("probed"), core.Write, o.recvProbe)
	d.OnRecv("probe_reply", core.In("probed"), core.Write, o.recvProbeReply)
	d.OnRecv("family", core.Any, core.Write, o.recvFamily)
	d.OnRecv("mdata", core.Not(core.In(core.StateInit, "joining")), core.Read, o.recvMdata)

	d.OnTimer("probe_requester", core.In("joined"), core.Write, o.onProbeRequester)
	d.OnTimer("keep_probing", core.In("probing"), core.Read, o.onKeepProbing)
	d.OnTimer("probe_timeout", core.In("probed"), core.Write, o.onProbeTimeout)
	d.OnTimer("join_retry", core.In("joining"), core.Write, o.onJoinRetry)
}

func (o *Protocol) apiInit(ctx *core.Context, call *core.APICall) {
	o.self = ctx.Self()
	o.root = call.Bootstrap
	// Incarnation stamp: the full virtual-nanosecond clock reading. A
	// revived node restarts strictly later than it first started, so the
	// stamp is distinct per incarnation yet fully deterministic.
	o.inc = uint64(ctx.Now().UnixNano())
	o.estimates = make(map[overlay.Address]bandwidthEstimate)
	o.firstArrival = make(map[overlay.Address]time.Time)
	o.lastArrival = make(map[overlay.Address]time.Time)
	o.probesSeen = make(map[overlay.Address]int)
	o.seenSeqs = make(map[seqKey]bool)
	o.candPaths = make(map[overlay.Address][]overlay.Address)
	o.rootPath = []overlay.Address{o.self}
	if o.root == o.self || o.root == overlay.NilAddress {
		// "Bootstrap = yes": the root starts joined.
		ctx.StateChange("joined")
		return
	}
	// "Bootstrap = no": send a join request to the bootstrap.
	o.startJoin(ctx, o.root)
}

// startJoin enters the joining state, asks target for adoption, and arms
// the retry timer: joins ride best-effort UDP, so a lost request (or a
// request sent to a crashed node) must not orphan us forever.
func (o *Protocol) startJoin(ctx *core.Context, target overlay.Address) {
	ctx.StateChange("joining")
	_ = ctx.Send(target, &joinMsg{}, overlay.PriorityDefault)
	ctx.TimerResched("join_retry", o.p.JoinRetryPeriod)
}

// onJoinRetry fires while still joining: fall back to the root, the one
// address every member knows survives redirect chains and crashes.
func (o *Protocol) onJoinRetry(ctx *core.Context) {
	_ = ctx.Send(o.root, &joinMsg{}, overlay.PriorityDefault)
	ctx.TimerResched("join_retry", o.p.JoinRetryPeriod)
}

// recvJoin: "Recv join request → add child, send join reply".
func (o *Protocol) recvJoin(ctx *core.Context, ev *core.MsgEvent) {
	kids := ctx.Neighbors("kids")
	for _, anc := range o.rootPath[1:] {
		if anc == ev.From {
			// Our own ancestor asking to join under us would close a cycle:
			// bounce it to the root instead.
			_ = ctx.Send(ev.From, &joinReply{Response: 0, Redirect: o.root}, overlay.PriorityDefault)
			return
		}
	}
	if !kids.Contains(ev.From) && kids.Full() {
		// No capacity: bounce toward a random child, keeping the tree legal.
		child := kids.Random(ctx.Rand())
		_ = ctx.Send(ev.From, &joinReply{Response: 0, Redirect: child.Addr}, overlay.PriorityDefault)
		return
	}
	kids.Add(ev.From)
	papa := ctx.Neighbors("papa").First()
	gp := overlay.NilAddress
	if papa != nil {
		gp = papa.Addr
	}
	sibs := make([]overlay.Address, 0, kids.Size())
	for _, k := range kids.Addrs() {
		if k != ev.From {
			sibs = append(sibs, k)
		}
	}
	_ = ctx.Send(ev.From, &joinReply{Response: 1, Grandparent: gp, Siblings: sibs,
		RootPath: o.rootPath}, overlay.PriorityDefault)
	ctx.NotifyNeighbors(overlay.NbrTypeChild, kids.Addrs())
	// Catch the new child up from the log; its dedup drops overlaps.
	for _, m := range o.backlog {
		_ = ctx.Send(ev.From, m, overlay.PriorityLow)
	}
}

// recvJoinReply is the transition of the paper's Figure 6.
func (o *Protocol) recvJoinReply(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*joinReply)
	papa := ctx.Neighbors("papa")
	if m.Response == 1 {
		if papa.Size() > 0 {
			pops := papa.First()
			if pops.Addr != ev.From {
				// Figure 6 line 6: tell the old parent we moved.
				_ = ctx.Send(pops.Addr, &removeMsg{}, overlay.PriorityDefault)
			}
			papa.Clear()
		}
		papa.Add(ev.From)
		ctx.StateChange("joined")
		ctx.TimerCancel("join_retry")
		ctx.TimerResched("probe_requester", o.jitter(ctx, o.p.ProbeRequestPeriod))
		o.grandpa = m.Grandparent
		o.brothers = m.Siblings
		o.setRootPath(ctx, m.RootPath)
		ctx.NotifyNeighbors(overlay.NbrTypeParent, []overlay.Address{ev.From})
		return
	}
	// Rejected: follow the redirect (or fall back to the root).
	target := m.Redirect
	if target == overlay.NilAddress || target == o.self {
		target = o.root
	}
	if papa.Size() > 0 {
		// We already have a tree position; stay there.
		ctx.StateChange("joined")
		ctx.TimerCancel("join_retry")
		return
	}
	_ = ctx.Send(target, &joinMsg{}, overlay.PriorityDefault)
}

func (o *Protocol) recvRemove(ctx *core.Context, ev *core.MsgEvent) {
	kids := ctx.Neighbors("kids")
	kids.Remove(ev.From)
	ctx.NotifyNeighbors(overlay.NbrTypeChild, kids.Addrs())
}

// recvFamily refreshes grandparent/sibling knowledge between probes.
func (o *Protocol) recvFamily(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*familyUpdate)
	if !ctx.Neighbors("papa").Contains(ev.From) {
		return
	}
	o.grandpa = m.Grandparent
	o.brothers = m.Siblings
	o.setRootPath(ctx, m.RootPath)
}

// setRootPath installs self + the parent's path, rejoining through the root
// if the path loops through us (a cycle escaped the guards).
func (o *Protocol) setRootPath(ctx *core.Context, parentPath []overlay.Address) {
	for _, a := range parentPath {
		if a == o.self {
			ctx.Neighbors("papa").Clear()
			o.startJoin(ctx, o.root)
			return
		}
	}
	o.rootPath = append([]overlay.Address{o.self}, parentPath...)
	// Propagate the changed path to children with fresh family info.
	o.pushFamily(ctx)
}

// pushFamily refreshes every child's grandparent/siblings/path view.
func (o *Protocol) pushFamily(ctx *core.Context) {
	kids := ctx.Neighbors("kids")
	papa := ctx.Neighbors("papa").First()
	gp := overlay.NilAddress
	if papa != nil {
		gp = papa.Addr
	}
	all := kids.Addrs()
	for _, k := range all {
		sibs := make([]overlay.Address, 0, len(all))
		for _, other := range all {
			if other != k {
				sibs = append(sibs, other)
			}
		}
		_ = ctx.Send(k, &familyUpdate{Grandparent: gp, Siblings: sibs, RootPath: o.rootPath}, overlay.PriorityDefault)
	}
}

// onProbeRequester is the Q-timer transition: "send probe requests to
// gparent and siblings; count = |gparent| + |siblings|" and move to probed.
func (o *Protocol) onProbeRequester(ctx *core.Context) {
	defer ctx.TimerResched("probe_requester", o.jitter(ctx, o.p.ProbeRequestPeriod))
	o.pushFamily(ctx) // keep children's grandparent/sibling/path views fresh
	var candidates []overlay.Address
	if o.grandpa != overlay.NilAddress && o.grandpa != o.self {
		candidates = append(candidates, o.grandpa)
	}
	for _, b := range o.brothers {
		if b != o.self {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		return
	}
	o.awaiting = len(candidates)
	o.estimates = make(map[overlay.Address]bandwidthEstimate)
	o.firstArrival = make(map[overlay.Address]time.Time)
	o.lastArrival = make(map[overlay.Address]time.Time)
	o.probesSeen = make(map[overlay.Address]int)
	ctx.StateChange("probed")
	for _, cand := range candidates {
		_ = ctx.Send(cand, &probeRequest{Count: uint16(o.p.ProbesPerTrain)}, overlay.PriorityDefault)
	}
	ctx.TimerResched("probe_timeout", o.p.ProbeTimeout)
}

// recvProbeRequest starts a probe train: "send probe, sched timer Z,
// # probes = N" and enter probing.
func (o *Protocol) recvProbeRequest(ctx *core.Context, ev *core.MsgEvent) {
	if ctx.State() == "probing" || ctx.State() == "probed" {
		return // one outstanding episode at a time, as the FSM's scalar
	}
	if ctx.State() == "joining" {
		// Refuse while homeless: the probing episode would end in a
		// StateChange to joined, silently abandoning the join retry and
		// leaving this node a parentless zombie "root" — the subtree
		// detachment kill/revive churn of the real root reliably produced.
		return
	}
	m := ev.Msg.(*probeRequest)
	o.probedNode = ev.From
	o.probesToSend = int(m.Count)
	ctx.StateChange("probing")
	o.sendOneProbe(ctx)
}

func (o *Protocol) sendOneProbe(ctx *core.Context) {
	if o.probesToSend <= 0 {
		return
	}
	o.probesToSend--
	idx := o.p.ProbesPerTrain - o.probesToSend - 1
	_ = ctx.Send(o.probedNode, &probe{Idx: uint16(idx), Total: uint16(o.p.ProbesPerTrain),
		Pad: make([]byte, o.p.ProbeSize)}, overlay.PriorityDefault)
	if o.probesToSend > 0 {
		// "Timer Z expires, # probes > 0 → send probe, # probes--"
		ctx.TimerResched("keep_probing", o.p.ProbeSpacing)
		return
	}
	// "Timer Z expires, # probes = 0 → send probe reply", back to joined.
	_ = ctx.Send(o.probedNode, &probeReply{Sent: uint16(o.p.ProbesPerTrain),
		RootPath: o.rootPath}, overlay.PriorityDefault)
	ctx.StateChange("joined")
}

func (o *Protocol) onKeepProbing(ctx *core.Context) {
	o.sendOneProbe(ctx)
}

// recvProbe timestamps train arrivals for the bandwidth estimate (§3.3.2:
// "Overcast estimates bandwidth by measuring the delay associated with
// receiving some number of probes at a sustained bandwidth").
func (o *Protocol) recvProbe(ctx *core.Context, ev *core.MsgEvent) {
	from := ev.From
	if _, ok := o.firstArrival[from]; !ok {
		o.firstArrival[from] = ctx.Now()
	}
	o.lastArrival[from] = ctx.Now()
	o.probesSeen[from]++
}

// recvProbeReply finalizes one candidate's estimate; count-- and decide at 0.
func (o *Protocol) recvProbeReply(ctx *core.Context, ev *core.MsgEvent) {
	from := ev.From
	o.candPaths[from] = ev.Msg.(*probeReply).RootPath
	seen := o.probesSeen[from]
	if seen >= 2 {
		spread := o.lastArrival[from].Sub(o.firstArrival[from])
		if spread > 0 {
			bits := float64((seen - 1) * o.p.ProbeSize * 8)
			o.estimates[from] = bandwidthEstimate{
				bitsPerSec: bits / spread.Seconds(),
				delay:      spread,
			}
		}
	}
	o.awaiting--
	if o.awaiting > 0 {
		return
	}
	ctx.TimerCancel("probe_timeout")
	o.decideMove(ctx)
}

// onProbeTimeout gives up on missing repliers and decides with what we have.
func (o *Protocol) onProbeTimeout(ctx *core.Context) {
	o.awaiting = 0
	o.decideMove(ctx)
}

// decideMove is Figure 1's "count = 0" fork: pick the candidate with the
// best bandwidth estimate; if it beats the current parent by MoveGain, send
// a join request to it ("new parent = yes"), else return to joined.
func (o *Protocol) decideMove(ctx *core.Context) {
	papa := ctx.Neighbors("papa").First()
	var best overlay.Address
	var bestBw float64
	for a, e := range o.estimates {
		// A candidate whose root path includes us is our descendant:
		// adopting it as a parent would detach the subtree into a cycle.
		descendant := false
		for _, hop := range o.candPaths[a] {
			if hop == o.self {
				descendant = true
				break
			}
		}
		if descendant {
			continue
		}
		// Ties break toward the lower address so runs are deterministic
		// regardless of map iteration order.
		if e.bitsPerSec > bestBw || (e.bitsPerSec == bestBw && best != overlay.NilAddress && a < best) {
			best, bestBw = a, e.bitsPerSec
		}
	}
	if papa != nil && best != overlay.NilAddress && best != papa.Addr {
		// The parent's bandwidth estimate: delay field on its entry, kept
		// from the joining train if we ever probed it; otherwise compare
		// against the recorded estimate on the papa entry.
		parentBw := papa.Bandwidth
		if e, ok := o.estimates[papa.Addr]; ok {
			parentBw = e.bitsPerSec
			papa.Bandwidth = parentBw
		}
		if parentBw == 0 || bestBw > parentBw*o.p.MoveGain {
			o.moves++
			o.startJoin(ctx, best)
			return
		}
	}
	if papa == nil && o.self != o.root {
		// Root guard: never settle into joined without a parent (the
		// parent died mid-episode). Resume the join instead.
		o.startJoin(ctx, o.root)
		return
	}
	ctx.StateChange("joined")
}

func (o *Protocol) apiError(ctx *core.Context, call *core.APICall) {
	papa := ctx.Neighbors("papa")
	if papa.Size() == 0 && ctx.State() != "joining" && ctx.State() != core.StateInit {
		// Parent failed: rejoin through the root (or become root's child).
		if o.self != o.root {
			o.startJoin(ctx, o.root)
		}
	}
	ctx.NotifyNeighbors(overlay.NbrTypeChild, ctx.Neighbors("kids").Addrs())
}

func (o *Protocol) apiMulticast(ctx *core.Context, call *core.APICall) {
	o.nextSeq++
	m := &mdata{Src: o.self, Inc: o.inc, Seq: o.nextSeq, Typ: call.PayloadType, Payload: call.Payload}
	o.disseminate(ctx, m, overlay.NilAddress, call.Priority)
}

func (o *Protocol) disseminate(ctx *core.Context, m *mdata, except overlay.Address, pri int) {
	// The backlog outlives the event chain; a received payload is a view of
	// the frame, valid only until that chain ends.
	m.Payload = bytes.Clone(m.Payload)
	o.backlog = append(o.backlog, m)
	if len(o.backlog) > backlogWindow {
		o.backlog = o.backlog[len(o.backlog)-backlogWindow:]
	}
	for _, kid := range ctx.Neighbors("kids").Addrs() {
		if kid == except {
			continue
		}
		ok, next, payload := ctx.Forward(m.Payload, m.Typ, kid, overlay.HashAddress(kid))
		if !ok {
			continue
		}
		_ = ctx.Send(next, &mdata{Src: m.Src, Inc: m.Inc, Seq: m.Seq, Typ: m.Typ, Payload: payload}, pri)
	}
	if m.Src != o.self {
		ctx.Deliver(m.Payload, m.Typ, m.Src)
	}
}

func (o *Protocol) recvMdata(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*mdata)
	// Track the newest source incarnation (stamps are nanosecond clock
	// readings, strictly increasing across restarts). Packets of older
	// incarnations are dead streams — backlog replays of a pre-restart
	// root — and are dropped outright rather than re-delivered.
	if m.Inc > o.curInc {
		o.curInc, o.curHigh = m.Inc, 0
	} else if m.Inc != o.curInc {
		return
	}
	key := seqKey{inc: m.Inc, seq: m.Seq} // single multicast source (the root) in Overcast
	if o.seenSeqs[key] {
		return
	}
	o.seenSeqs[key] = true
	if m.Seq > o.curHigh {
		o.curHigh = m.Seq
	}
	if len(o.seenSeqs) > 4096 {
		// Bound the window against the live stream's head: dead-incarnation
		// entries go first, then live entries far behind curHigh. Keying the
		// purge to the packet itself would let one stale replay wipe the
		// live window.
		for k := range o.seenSeqs {
			if k.inc != o.curInc || k.seq+2048 < o.curHigh {
				delete(o.seenSeqs, k)
			}
		}
	}
	o.disseminate(ctx, m, ev.From, overlay.PriorityDefault)
}

func (o *Protocol) jitter(ctx *core.Context, d time.Duration) time.Duration {
	return d*3/4 + time.Duration(ctx.Rand().Int63n(int64(d)/2+1))
}
