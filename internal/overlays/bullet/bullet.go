// Package bullet implements Bullet [16] as a MACEDON agent layered over
// RandTree, mirroring the paper's Figure 2 stack. The source stripes blocks
// across tree branches so descendants receive disjoint subsets; a
// RanSub-style epoch protocol (collect up the tree, distribute down it)
// carries bloom-filter summary tickets so nodes can find peers with disjoint
// data; and a mesh of such peers exchanges the missing blocks. Receivers
// therefore approach the full stream rate even though the tree alone gives
// each subtree only a slice — the paper's motivating result for Bullet.
package bullet

import (
	"sort"
	"time"

	"macedon/internal/bloom"
	"macedon/internal/core"
	"macedon/internal/overlay"
)

// Params tunes the protocol.
type Params struct {
	// EpochPeriod is the RanSub collect/distribute cadence (default 5 s).
	EpochPeriod time.Duration
	// MaxPeers bounds the mesh degree (default 4).
	MaxPeers int
	// CandidateSample is the number of candidates kept when merging collect
	// messages (default 8).
	CandidateSample int
	// HavePeriod is the peer summary-exchange cadence (default 2 s).
	HavePeriod time.Duration
	// FilterBits sizes block summaries (default 2048 bits).
	FilterBits int
	// RequestBatch bounds how many blocks are requested from one peer per
	// exchange (default 32).
	RequestBatch int
}

func (p *Params) setDefaults() {
	if p.EpochPeriod <= 0 {
		p.EpochPeriod = 5 * time.Second
	}
	if p.MaxPeers <= 0 {
		p.MaxPeers = 4
	}
	if p.CandidateSample <= 0 {
		p.CandidateSample = 8
	}
	if p.HavePeriod <= 0 {
		p.HavePeriod = 2 * time.Second
	}
	if p.FilterBits <= 0 {
		p.FilterBits = 2048
	}
	if p.RequestBatch <= 0 {
		p.RequestBatch = 32
	}
}

// New returns a factory for Bullet agents.
func New(p Params) core.Factory {
	p.setDefaults()
	return func() core.Agent { return &Protocol{p: p} }
}

type storedBlock struct {
	typ     int32
	payload []byte
}

// blockKey identifies a block across source restarts: a revived source
// resets seq to zero under a fresh incarnation stamp, and the two streams
// must not collide in dedup or summary state.
type blockKey struct {
	inc uint64
	seq uint32
}

// bloomKey mixes the incarnation into the summary-filter key so tickets
// advertise (incarnation, seq) pairs, not bare seqs.
func (k blockKey) bloomKey() uint64 {
	return k.inc ^ (uint64(k.seq)+1)*0x9E3779B97F4A7C15
}

// maxTrackedIncs bounds the per-incarnation horizon map: only the most
// recent restarts matter for mesh recovery.
const maxTrackedIncs = 3

// Protocol is one node's Bullet instance.
type Protocol struct {
	p Params

	self overlay.Address
	root bool

	// Tree view cached from RandTree notify upcalls.
	children []overlay.Address
	parent   overlay.Address

	inc        uint64 // incarnation stamp carried on our own stream
	blocks     map[blockKey]storedBlock
	incHorizon map[uint64]uint32 // incarnation → highest seq held
	summary    *bloom.Filter
	nextSeq    uint32

	peers      map[overlay.Address]bool
	peerSeen   map[overlay.Address]time.Time
	peerHaves  map[overlay.Address]*bloom.Filter
	candidates []candidate

	fromTree uint64
	fromMesh uint64
}

// ProtocolName implements the engine's naming hook.
func (b *Protocol) ProtocolName() string { return "bullet" }

// BlocksFromTree counts blocks that arrived down the tree.
func (b *Protocol) BlocksFromTree() uint64 { return b.fromTree }

// BlocksFromMesh counts blocks recovered from mesh peers.
func (b *Protocol) BlocksFromMesh() uint64 { return b.fromMesh }

// Blocks returns the total distinct blocks held.
func (b *Protocol) Blocks() int { return len(b.blocks) }

// Peers returns the current mesh peers.
func (b *Protocol) Peers() []overlay.Address {
	out := make([]overlay.Address, 0, len(b.peers))
	for a := range b.peers {
		out = append(out, a)
	}
	return out
}

// Define declares the Bullet FSM: the Go equivalent of
// "protocol bullet uses randtree".
func (b *Protocol) Define(d *core.Def) {
	d.States("running")
	d.Addressing(core.IPAddressing)

	d.Message("tblock", func() overlay.Message { return &tblock{} }, "")
	d.Message("collect", func() overlay.Message { return &collectMsg{} }, "")
	d.Message("dist", func() overlay.Message { return &distMsg{} }, "")
	d.Message("peer_req", func() overlay.Message { return &peerReq{} }, "")
	d.Message("peer_resp", func() overlay.Message { return &peerResp{} }, "")
	d.Message("have", func() overlay.Message { return &have{} }, "")
	d.Message("block_req", func() overlay.Message { return &blockReq{} }, "")
	d.Message("block_data", func() overlay.Message { return &blockData{} }, "")

	d.PeriodicTimer("epoch", b.p.EpochPeriod)
	d.PeriodicTimer("haves", b.p.HavePeriod)

	d.OnAPI(overlay.APIInit, core.In(core.StateInit), core.Write, b.apiInit)
	d.OnAPI(overlay.APIMulticast, core.In("running"), core.Read, b.apiMulticast)
	d.OnAPI(overlay.APINotify, core.Any, core.Write, b.apiNotify)

	d.OnRecv("tblock", core.In("running"), core.Write, b.recvTblock)
	d.OnRecv("collect", core.In("running"), core.Write, b.recvCollect)
	d.OnForward("collect", core.In("running"), core.Write, b.forwardCollect)
	d.OnRecv("dist", core.In("running"), core.Write, b.recvDist)
	d.OnRecv("peer_req", core.In("running"), core.Write, b.recvPeerReq)
	d.OnRecv("peer_resp", core.In("running"), core.Write, b.recvPeerResp)
	d.OnRecv("have", core.In("running"), core.Write, b.recvHave)
	d.OnRecv("block_req", core.In("running"), core.Read, b.recvBlockReq)
	d.OnRecv("block_data", core.In("running"), core.Write, b.recvBlockData)

	d.OnTimer("epoch", core.In("running"), core.Write, b.onEpoch)
	d.OnTimer("haves", core.In("running"), core.Write, b.onHaves)
}

func (b *Protocol) apiInit(ctx *core.Context, call *core.APICall) {
	b.self = ctx.Self()
	b.root = call.Bootstrap == b.self || call.Bootstrap == overlay.NilAddress
	// Incarnation stamp: the clock reading at init, strictly greater after
	// every restart, so a revived source's restarted seq counter can never
	// collide with its previous life (the NICE/Overcast/AMMO fix).
	b.inc = uint64(ctx.Now().UnixNano())
	b.blocks = make(map[blockKey]storedBlock)
	b.incHorizon = make(map[uint64]uint32)
	b.summary = bloom.New(b.p.FilterBits, 4)
	b.peers = make(map[overlay.Address]bool)
	b.peerSeen = make(map[overlay.Address]time.Time)
	b.peerHaves = make(map[overlay.Address]*bloom.Filter)
	ctx.StateChange("running")
	ctx.TimerSched("epoch", b.jitter(ctx, b.p.EpochPeriod))
	ctx.TimerSched("haves", b.jitter(ctx, b.p.HavePeriod))
}

func (b *Protocol) jitter(ctx *core.Context, d time.Duration) time.Duration {
	return d*3/4 + time.Duration(ctx.Rand().Int63n(int64(d)/2+1))
}

// apiNotify caches the RandTree topology around this node.
func (b *Protocol) apiNotify(ctx *core.Context, call *core.APICall) {
	switch call.NbrType {
	case overlay.NbrTypeChild:
		b.children = append([]overlay.Address(nil), call.Neighbors...)
	case overlay.NbrTypeParent:
		if len(call.Neighbors) > 0 {
			b.parent = call.Neighbors[0]
		}
	}
}

// --- data path ---------------------------------------------------------------

// apiMulticast runs at the source: store the block and stripe it across
// tree branches so subtrees receive disjoint subsets.
func (b *Protocol) apiMulticast(ctx *core.Context, call *core.APICall) {
	seq := b.nextSeq
	b.nextSeq++
	b.store(ctx, blockKey{inc: b.inc, seq: seq}, call.PayloadType, call.Payload, true, false)
	if len(b.children) == 0 {
		return
	}
	child := b.children[int(seq)%len(b.children)]
	m := &tblock{Inc: b.inc, Seq: seq, Typ: call.PayloadType, Payload: call.Payload}
	_ = ctx.Send(child, m, call.Priority)
}

// recvTblock: a block arrived down the tree; forward to all children.
func (b *Protocol) recvTblock(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*tblock)
	if !b.store(ctx, blockKey{inc: m.Inc, seq: m.Seq}, m.Typ, m.Payload, true, true) {
		return
	}
	for _, kid := range b.children {
		if kid != ev.From {
			_ = ctx.Send(kid, m, overlay.PriorityDefault)
		}
	}
}

// store records a block once, delivering it upward. It reports whether the
// block was new.
func (b *Protocol) store(ctx *core.Context, k blockKey, typ int32, payload []byte, deliver, fromTree bool) bool {
	if _, dup := b.blocks[k]; dup {
		return false
	}
	b.blocks[k] = storedBlock{typ: typ, payload: append([]byte(nil), payload...)}
	b.summary.Add(k.bloomKey())
	if hi, ok := b.incHorizon[k.inc]; !ok || k.seq > hi {
		b.incHorizon[k.inc] = k.seq
		b.pruneIncs()
	}
	if fromTree {
		b.fromTree++
	}
	if deliver && !b.root {
		ctx.Deliver(payload, typ, b.self)
	}
	return true
}

// pruneIncs keeps only the most recent incarnations' horizons: mesh
// recovery chases live streams, not ancient ones.
func (b *Protocol) pruneIncs() {
	for len(b.incHorizon) > maxTrackedIncs {
		lowest := uint64(0)
		first := true
		for inc := range b.incHorizon {
			if first || inc < lowest {
				lowest, first = inc, false
			}
		}
		delete(b.incHorizon, lowest)
	}
}

// --- RanSub epochs -------------------------------------------------------------

func (b *Protocol) ownCandidate() (candidate, bool) {
	enc, err := b.summary.MarshalBinary()
	if err != nil {
		return candidate{}, false
	}
	return candidate{Addr: b.self, Summary: enc}, true
}

// onEpoch starts a collect phase from the leaves; interior nodes merge in
// their forward transitions as collects climb.
func (b *Protocol) onEpoch(ctx *core.Context) {
	if b.root {
		return // the root turns collects around as distributes
	}
	if len(b.children) > 0 {
		return // interior nodes rely on leaf-initiated collects
	}
	own, ok := b.ownCandidate()
	if !ok {
		return
	}
	frame, err := ctx.EncodeFrame(&collectMsg{Cands: []candidate{own}})
	if err != nil {
		return
	}
	_ = ctx.Collect(0, frame, core.ProtocolPayload, overlay.PriorityDefault)
}

// forwardCollect runs at interior nodes as the collect climbs: merge our
// candidate plus a uniform subsample.
func (b *Protocol) forwardCollect(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*collectMsg)
	if own, ok := b.ownCandidate(); ok {
		m.Cands = append(m.Cands, own)
	}
	m.Cands = sample(ctx, m.Cands, b.p.CandidateSample)
}

// recvCollect runs at the root: turn the sample around as a distribute.
func (b *Protocol) recvCollect(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*collectMsg)
	if !b.root {
		// A collect delivered off-root means the tree is still forming.
		return
	}
	b.candidates = sample(ctx, append(b.candidates, keepCands(m.Cands)...), b.p.CandidateSample*2)
	dist := &distMsg{Cands: b.candidates}
	for _, kid := range b.children {
		_ = ctx.Send(kid, dist, overlay.PriorityDefault)
	}
}

// recvDist descends: adopt candidates, re-randomize, pass down.
func (b *Protocol) recvDist(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*distMsg)
	b.candidates = keepCands(m.Cands)
	b.maybePeer(ctx)
	down := &distMsg{Cands: sample(ctx, m.Cands, b.p.CandidateSample)}
	for _, kid := range b.children {
		_ = ctx.Send(kid, down, overlay.PriorityDefault)
	}
}

// maybePeer ranks candidates by estimated disjointness and courts the best.
func (b *Protocol) maybePeer(ctx *core.Context) {
	if len(b.peers) >= b.p.MaxPeers {
		return
	}
	var best overlay.Address
	var bestScore float64 = -1
	for _, c := range b.candidates {
		if c.Addr == b.self || b.peers[c.Addr] || c.Addr == b.parent {
			continue
		}
		f, ok := c.filter()
		if !ok {
			continue
		}
		score := b.summary.EstimateDisjointness(f)
		if score > bestScore {
			best, bestScore = c.Addr, score
		}
	}
	if best == overlay.NilAddress {
		return
	}
	_ = ctx.Send(best, &peerReq{}, overlay.PriorityDefault)
}

func (b *Protocol) recvPeerReq(ctx *core.Context, ev *core.MsgEvent) {
	accept := len(b.peers) < 2*b.p.MaxPeers // accept more than we court
	if accept {
		b.peers[ev.From] = true
		b.peerSeen[ev.From] = ctx.Now()
	}
	_ = ctx.Send(ev.From, &peerResp{Accept: accept}, overlay.PriorityDefault)
}

func (b *Protocol) recvPeerResp(ctx *core.Context, ev *core.MsgEvent) {
	if ev.Msg.(*peerResp).Accept && len(b.peers) < 2*b.p.MaxPeers {
		b.peers[ev.From] = true
		b.peerSeen[ev.From] = ctx.Now()
	}
}

// --- mesh recovery ---------------------------------------------------------------

func (b *Protocol) onHaves(ctx *core.Context) {
	b.evictDeadPeers(ctx)
	if len(b.peers) == 0 {
		return
	}
	enc, err := b.summary.MarshalBinary()
	if err != nil {
		return
	}
	m := &have{Summary: enc, Incs: b.knownIncs()}
	for _, a := range b.sortedPeers() {
		_ = ctx.Send(a, m, overlay.PriorityDefault)
	}
}

// sortedPeers lists the mesh peers in address order: sends that fan out
// over the peer set must happen in a deterministic order or the engine's
// same-seed → identical-trace contract breaks.
func (b *Protocol) sortedPeers() []overlay.Address {
	out := make([]overlay.Address, 0, len(b.peers))
	for a := range b.peers {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// knownIncs lists the tracked incarnations newest-first (stamps are
// init-clock readings, so higher = more recent). The order is
// deterministic, which keeps mesh request traffic identical across runs
// of one scenario and seed.
func (b *Protocol) knownIncs() []uint64 {
	incs := make([]uint64, 0, len(b.incHorizon))
	for inc := range b.incHorizon {
		incs = append(incs, inc)
	}
	sort.Slice(incs, func(i, j int) bool { return incs[i] > incs[j] })
	return incs
}

// evictDeadPeers drops mesh peers that have gone silent for several
// exchange periods. Without eviction, peers that died during churn clog
// the degree cap forever and mesh recovery wedges — the join-retry class
// of the churn audits, in mesh form.
func (b *Protocol) evictDeadPeers(ctx *core.Context) {
	cutoff := ctx.Now().Add(-4 * b.p.HavePeriod)
	for _, a := range b.sortedPeers() {
		if seen, ok := b.peerSeen[a]; ok && seen.After(cutoff) {
			continue
		}
		if _, ok := b.peerSeen[a]; !ok {
			// Never heard: start the grace period now.
			b.peerSeen[a] = ctx.Now()
			continue
		}
		delete(b.peers, a)
		delete(b.peerSeen, a)
		delete(b.peerHaves, a)
	}
}

// recvHave: request blocks the peer has and we lack, incarnation by
// incarnation, newest stream first. The scan covers the peer's
// advertised incarnations too, so a node holding zero blocks of a
// stream (a long-detached orphan recovering mesh-only) can still
// bootstrap into it.
func (b *Protocol) recvHave(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*have)
	b.peerSeen[ev.From] = ctx.Now()
	var f bloom.Filter
	if err := f.UnmarshalBinary(m.Summary); err != nil {
		return
	}
	b.peerHaves[ev.From] = &f
	// Horizon per incarnation: our own high-water mark plus a window, or
	// a bare window for incarnations we only know from the advert.
	horizon := make(map[uint64]uint32, len(b.incHorizon)+len(m.Incs))
	for inc, hi := range b.incHorizon {
		horizon[inc] = hi + 64
	}
	for _, inc := range m.Incs {
		if _, ok := horizon[inc]; !ok {
			horizon[inc] = 64
		}
	}
	incs := make([]uint64, 0, len(horizon))
	for inc := range horizon {
		incs = append(incs, inc)
	}
	sort.Slice(incs, func(i, j int) bool { return incs[i] > incs[j] })
	budget := b.p.RequestBatch
	for _, inc := range incs {
		if budget <= 0 {
			break
		}
		var want []uint32
		for seq := uint32(0); seq < horizon[inc] && budget > 0; seq++ {
			k := blockKey{inc: inc, seq: seq}
			if _, got := b.blocks[k]; got {
				continue
			}
			if f.Contains(k.bloomKey()) {
				want = append(want, seq)
				budget--
			}
		}
		if len(want) > 0 {
			_ = ctx.Send(ev.From, &blockReq{Inc: inc, Seqs: want}, overlay.PriorityDefault)
		}
	}
}

func (b *Protocol) recvBlockReq(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*blockReq)
	for _, seq := range m.Seqs {
		if blk, ok := b.blocks[blockKey{inc: m.Inc, seq: seq}]; ok {
			_ = ctx.Send(ev.From, &blockData{Inc: m.Inc, Seq: seq, Typ: blk.typ, Payload: blk.payload}, overlay.PriorityDefault)
		}
	}
}

func (b *Protocol) recvBlockData(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*blockData)
	b.peerSeen[ev.From] = ctx.Now()
	if b.store(ctx, blockKey{inc: m.Inc, seq: m.Seq}, m.Typ, m.Payload, true, false) {
		b.fromMesh++
	}
}

// sample returns up to n uniformly chosen entries.
func sample(ctx *core.Context, cs []candidate, n int) []candidate {
	if len(cs) <= n {
		return cs
	}
	ctx.Rand().Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs[:n]
}
