// Package pastry implements the Pastry DHT [22] as a MACEDON agent: prefix
// routing over a 2^b digit table, leaf sets, join-time row transfer, and the
// routeIP location cache whose eviction policy Figure 12 of the paper
// studies. A configurable RMI cost model reproduces the FreePastry baseline
// of Figure 11 (per-hop marshalling delay growing with instance count, the
// overhead the paper attributes Java RMI's performance to).
package pastry

import (
	"bytes"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

// Params tunes the protocol.
type Params struct {
	// B is the routing digit width in bits (default 4: hex digits, 8 rows).
	B int
	// LeafSize is the total leaf-set size (default 8: 4 each side).
	LeafSize int
	// LeafExchangePeriod is the leaf-set maintenance period (default 2 s).
	LeafExchangePeriod time.Duration

	// CacheLifetime controls the routeIP location cache: 0 disables
	// caching, a negative value caches forever ("cache evictions
	// disabled"), a positive value is the entry TTL.
	CacheLifetime time.Duration

	// RMI enables the FreePastry-baseline cost model: every message hop
	// pays RMIBase + RMIPerNode × NetworkSize of processing delay before
	// it is acted on, standing in for Java RMI marshalling and memory
	// pressure (§4.2.3 attributes FreePastry's latency to exactly this).
	RMI         bool
	RMIBase     time.Duration
	RMIPerNode  time.Duration
	NetworkSize int
}

func (p *Params) setDefaults() {
	if p.B <= 0 {
		p.B = 4
	}
	if p.LeafSize <= 0 {
		p.LeafSize = 8
	}
	if p.LeafExchangePeriod <= 0 {
		p.LeafExchangePeriod = 2 * time.Second
	}
	if p.RMI {
		if p.RMIBase <= 0 {
			p.RMIBase = 40 * time.Millisecond
		}
		if p.RMIPerNode <= 0 {
			p.RMIPerNode = 600 * time.Microsecond
		}
	}
}

// New returns a factory for Pastry agents.
func New(p Params) core.Factory {
	p.setDefaults()
	return func() core.Agent { return &Protocol{p: p} }
}

type cacheEntry struct {
	addr    overlay.Address
	expires time.Time // zero when entries never expire
}

// Protocol is one node's Pastry instance.
type Protocol struct {
	p Params

	self    overlay.Address
	selfKey overlay.Key
	boot    overlay.Address

	rows, cols int
	table      [][]overlay.Address // [row][col]
	// Leaves sorted by ring distance: cw grows clockwise, ccw counter-.
	cw, ccw []overlay.Address

	cache       map[overlay.Key]cacheEntry
	cacheFills  uint64 // cache_info messages processed (overhead metric)
	directSends uint64 // routes short-circuited by a cache hit
	joined      bool
}

// ProtocolName implements the engine's naming hook.
func (pt *Protocol) ProtocolName() string { return "pastry" }

// Joined reports whether the node completed its join.
func (pt *Protocol) Joined() bool { return pt.joined }

// LeafSet returns the current leaf set, counter-clockwise then clockwise.
func (pt *Protocol) LeafSet() []overlay.Address {
	out := append([]overlay.Address(nil), pt.ccw...)
	return append(out, pt.cw...)
}

// TableEntry returns the routing-table entry at (row, col).
func (pt *Protocol) TableEntry(row, col int) overlay.Address { return pt.table[row][col] }

// CacheFills reports how many location-cache fills this node processed.
func (pt *Protocol) CacheFills() uint64 { return pt.cacheFills }

// DirectSends reports how many routed payloads the location cache
// short-circuited to a single direct hop.
func (pt *Protocol) DirectSends() uint64 { return pt.directSends }

// Define declares the Pastry FSM: the Go equivalent of pastry.mac.
func (pt *Protocol) Define(d *core.Def) {
	d.States("joining", "joined")
	d.Addressing(core.HashAddressing)

	d.UDPTransport("CTRL")
	d.TCPTransport("DATA")

	d.Message("join_req", func() overlay.Message { return &joinReq{} }, "CTRL")
	d.Message("join_reply", func() overlay.Message { return &joinReply{} }, "CTRL")
	d.Message("announce", func() overlay.Message { return &announce{} }, "CTRL")
	d.Message("ls_req", func() overlay.Message { return &lsReq{} }, "CTRL")
	d.Message("ls_resp", func() overlay.Message { return &lsResp{} }, "CTRL")
	d.Message("data", func() overlay.Message { return &data{} }, "DATA")
	d.Message("data_ip", func() overlay.Message { return &dataIP{} }, "DATA")
	d.Message("cache_info", func() overlay.Message { return &cacheInfo{} }, "CTRL")

	d.Timer("ls_exchange", pt.p.LeafExchangePeriod)
	d.NeighborList("leaves", pt.p.LeafSize+1, true)

	d.OnAPI(overlay.APIInit, core.In(core.StateInit), core.Write, pt.apiInit)
	// Routing before the join completes would deliver everything locally
	// (cold tables route to self); unjoined nodes drop route calls and the
	// layer above's soft state retries.
	d.OnAPI(overlay.APIRoute, core.In("joined"), core.Read, pt.apiRoute)
	d.OnAPI(overlay.APIRouteIP, core.Any, core.Read, pt.apiRouteIP)
	d.OnAPI(overlay.APIError, core.Any, core.Write, pt.apiError)

	d.OnRecv("join_req", core.Any, core.Write, pt.recvJoinReq)
	d.OnRecv("join_reply", core.In("joining"), core.Write, pt.recvJoinReply)
	d.OnRecv("announce", core.Any, core.Write, pt.recvAnnounce)
	d.OnRecv("ls_req", core.Any, core.Read, pt.recvLsReq)
	d.OnRecv("ls_resp", core.Any, core.Write, pt.recvLsResp)
	d.OnRecv("data", core.Any, core.Read, pt.recvData)
	d.OnRecv("data_ip", core.Any, core.Read, pt.recvDataIP)
	d.OnRecv("cache_info", core.Any, core.Write, pt.recvCacheInfo)

	d.OnTimer("ls_exchange", core.In("joined"), core.Write, pt.onLsExchange)
}

func (pt *Protocol) apiInit(ctx *core.Context, call *core.APICall) {
	pt.self = ctx.Self()
	pt.selfKey = ctx.SelfKey()
	pt.boot = call.Bootstrap
	pt.rows = overlay.KeyBits / pt.p.B
	pt.cols = 1 << uint(pt.p.B)
	pt.table = make([][]overlay.Address, pt.rows)
	for r := range pt.table {
		pt.table[r] = make([]overlay.Address, pt.cols)
	}
	pt.cache = make(map[overlay.Key]cacheEntry)
	if pt.boot == pt.self || pt.boot == overlay.NilAddress {
		pt.becomeJoined(ctx)
		return
	}
	ctx.StateChange("joining")
	_ = ctx.Send(pt.boot, &joinReq{Joiner: pt.self}, overlay.PriorityDefault)
}

func (pt *Protocol) becomeJoined(ctx *core.Context) {
	ctx.StateChange("joined")
	pt.joined = true
	ctx.TimerSched("ls_exchange", pt.jitter(ctx, pt.p.LeafExchangePeriod))
}

func (pt *Protocol) jitter(ctx *core.Context, d time.Duration) time.Duration {
	return d*3/4 + time.Duration(ctx.Rand().Int63n(int64(d)/2+1))
}

// rmi wraps an action with the FreePastry cost model's per-hop delay. With
// the model on, fn runs in a later event chain (core.Context.After): the
// caller clones the received bytes it reads.
func (pt *Protocol) rmi(ctx *core.Context, fn func(ctx *core.Context)) {
	if !pt.p.RMI {
		fn(ctx)
		return
	}
	d := pt.p.RMIBase + time.Duration(pt.p.NetworkSize)*pt.p.RMIPerNode
	ctx.After(d, fn)
}

// --- node knowledge ------------------------------------------------------

// learn folds a node into the routing table and leaf set.
func (pt *Protocol) learn(ctx *core.Context, a overlay.Address) {
	if a == pt.self || a == overlay.NilAddress {
		return
	}
	ak := overlay.HashAddress(a)
	row := pt.selfKey.SharedPrefix(ak, pt.p.B)
	if row < pt.rows {
		col := ak.Digit(row, pt.p.B)
		if pt.table[row][col] == overlay.NilAddress {
			pt.table[row][col] = a
		}
	}
	pt.updateLeaves(ctx, a)
}

// updateLeaves inserts a into the cw/ccw leaf halves, keeping the closest
// LeafSize/2 on each side.
func (pt *Protocol) updateLeaves(ctx *core.Context, a overlay.Address) {
	if a == pt.self || contains(pt.cw, a) || contains(pt.ccw, a) {
		return
	}
	ak := overlay.HashAddress(a)
	half := pt.p.LeafSize / 2
	insert := func(side []overlay.Address, dist func(overlay.Key) uint32) []overlay.Address {
		side = append(side, a)
		// insertion sort by distance; sides are tiny
		for i := len(side) - 1; i > 0; i-- {
			if dist(overlay.HashAddress(side[i])) < dist(overlay.HashAddress(side[i-1])) {
				side[i], side[i-1] = side[i-1], side[i]
			}
		}
		if len(side) > half {
			side = side[:half]
		}
		return side
	}
	cwDist := func(k overlay.Key) uint32 { return pt.selfKey.Distance(k) }
	ccwDist := func(k overlay.Key) uint32 { return k.Distance(pt.selfKey) }
	// a belongs to the side it is nearer on; with few nodes it may sit in
	// both halves' candidate range, so try both and let distance sorting
	// keep the right ones.
	if cwDist(ak) <= ccwDist(ak) {
		pt.cw = insert(pt.cw, cwDist)
	} else {
		pt.ccw = insert(pt.ccw, ccwDist)
	}
	pt.syncLeafList(ctx)
}

func (pt *Protocol) syncLeafList(ctx *core.Context) {
	nl := ctx.Neighbors("leaves")
	nl.Clear()
	for _, a := range pt.LeafSet() {
		nl.Add(a)
	}
	ctx.NotifyNeighbors(overlay.NbrTypeLeafSet, pt.LeafSet())
}

func (pt *Protocol) forget(ctx *core.Context, a overlay.Address) {
	pt.cw = remove(pt.cw, a)
	pt.ccw = remove(pt.ccw, a)
	for r := range pt.table {
		for c := range pt.table[r] {
			if pt.table[r][c] == a {
				pt.table[r][c] = overlay.NilAddress
			}
		}
	}
	for k, e := range pt.cache {
		if e.addr == a {
			delete(pt.cache, k)
		}
	}
	pt.syncLeafList(ctx)
}

// inLeafRange reports whether k falls inside the leaf-set arc.
func (pt *Protocol) inLeafRange(k overlay.Key) bool {
	if len(pt.cw) == 0 && len(pt.ccw) == 0 {
		return true // alone: we own everything
	}
	lo := pt.selfKey
	if len(pt.ccw) > 0 {
		lo = overlay.HashAddress(pt.ccw[len(pt.ccw)-1])
	}
	hi := pt.selfKey
	if len(pt.cw) > 0 {
		hi = overlay.HashAddress(pt.cw[len(pt.cw)-1])
	}
	return k == lo || k.BetweenIncl(lo, hi)
}

// closestKnown returns the numerically closest node to k among self, the
// leaf set, and the routing table.
func (pt *Protocol) closestKnown(k overlay.Key) overlay.Address {
	best := pt.self
	bestD := overlay.RingDiff(pt.selfKey, k)
	consider := func(a overlay.Address) {
		if a == overlay.NilAddress {
			return
		}
		d := overlay.RingDiff(overlay.HashAddress(a), k)
		if d < bestD || (d == bestD && a < best) {
			best, bestD = a, d
		}
	}
	for _, a := range pt.cw {
		consider(a)
	}
	for _, a := range pt.ccw {
		consider(a)
	}
	for r := range pt.table {
		for _, a := range pt.table[r] {
			consider(a)
		}
	}
	return best
}

// nextHop implements Pastry routing for key k; self means "deliver here".
func (pt *Protocol) nextHop(k overlay.Key) overlay.Address {
	if pt.inLeafRange(k) {
		best := pt.self
		bestD := overlay.RingDiff(pt.selfKey, k)
		for _, a := range append(append([]overlay.Address(nil), pt.cw...), pt.ccw...) {
			d := overlay.RingDiff(overlay.HashAddress(a), k)
			if d < bestD || (d == bestD && a < best) {
				best, bestD = a, d
			}
		}
		return best
	}
	row := pt.selfKey.SharedPrefix(k, pt.p.B)
	if row < pt.rows {
		if e := pt.table[row][k.Digit(row, pt.p.B)]; e != overlay.NilAddress {
			return e
		}
	}
	// Rare case: no table entry; fall back to the numerically closest known
	// node that improves on self.
	best := pt.closestKnown(k)
	return best
}

// --- join -----------------------------------------------------------------

func (pt *Protocol) recvJoinReq(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*joinReq)
	m.Hops++
	jk := overlay.HashAddress(m.Joiner)
	// Contribute the row the joiner needs from this hop.
	row := pt.selfKey.SharedPrefix(jk, pt.p.B)
	if row < pt.rows {
		m.Rows = append(m.Rows, rowTransfer{Row: uint8(row), Entries: append([]overlay.Address{pt.self}, pt.table[row]...)})
	}
	next := pt.nextHop(jk)
	if next == pt.self || m.Hops > uint8(2*pt.rows) {
		// This node is numerically closest: complete the join.
		_ = ctx.Send(m.Joiner, &joinReply{Rows: m.Rows, Leaves: append(pt.LeafSet(), pt.self)}, overlay.PriorityDefault)
		pt.learn(ctx, m.Joiner)
		return
	}
	_ = ctx.Send(next, m, overlay.PriorityDefault)
}

func (pt *Protocol) recvJoinReply(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*joinReply)
	for _, rt := range m.Rows {
		for _, a := range rt.Entries {
			pt.learn(ctx, a)
		}
	}
	for _, a := range m.Leaves {
		pt.learn(ctx, a)
	}
	pt.becomeJoined(ctx)
	// Announce to everyone now known so they fold us in.
	for _, a := range pt.known() {
		_ = ctx.Send(a, &announce{}, overlay.PriorityDefault)
	}
}

func (pt *Protocol) known() []overlay.Address {
	var out []overlay.Address
	seen := map[overlay.Address]bool{}
	add := func(a overlay.Address) {
		if a != overlay.NilAddress && a != pt.self && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, a := range pt.cw {
		add(a)
	}
	for _, a := range pt.ccw {
		add(a)
	}
	for r := range pt.table {
		for _, a := range pt.table[r] {
			add(a)
		}
	}
	return out
}

func (pt *Protocol) recvAnnounce(ctx *core.Context, ev *core.MsgEvent) {
	pt.learn(ctx, ev.From)
}

func (pt *Protocol) onLsExchange(ctx *core.Context) {
	defer ctx.TimerSched("ls_exchange", pt.jitter(ctx, pt.p.LeafExchangePeriod))
	leaves := pt.LeafSet()
	if len(leaves) == 0 {
		if pt.boot != pt.self {
			_ = ctx.Send(pt.boot, &lsReq{}, overlay.PriorityDefault)
		}
		return
	}
	target := leaves[ctx.Rand().Intn(len(leaves))]
	_ = ctx.Send(target, &lsReq{}, overlay.PriorityDefault)
}

func (pt *Protocol) recvLsReq(ctx *core.Context, ev *core.MsgEvent) {
	_ = ctx.Send(ev.From, &lsResp{Leaves: append(pt.LeafSet(), pt.self)}, overlay.PriorityDefault)
}

func (pt *Protocol) recvLsResp(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*lsResp)
	for _, a := range m.Leaves {
		pt.learn(ctx, a)
	}
}

// --- data path --------------------------------------------------------------

func (pt *Protocol) apiRoute(ctx *core.Context, call *core.APICall) {
	m := &data{Src: pt.self, Dest: call.Dest, Typ: call.PayloadType,
		WantCache: pt.p.CacheLifetime != 0, Payload: call.Payload}
	// Location cache: a fresh entry short-circuits DHT routing to one hop.
	if e, ok := pt.cache[call.Dest]; ok {
		if e.expires.IsZero() || ctx.Now().Before(e.expires) {
			m.WantCache = false
			pt.directSends++
			_ = ctx.Send(e.addr, m, call.Priority)
			return
		}
		delete(pt.cache, call.Dest)
	}
	pt.routeData(ctx, m, call.Priority)
}

func (pt *Protocol) routeData(ctx *core.Context, m *data, pri int) {
	next := pt.nextHop(m.Dest)
	if next == pt.self {
		pt.deliverData(ctx, m)
		return
	}
	ok, newNext, payload := ctx.Forward(m.Payload, m.Typ, next, overlay.HashAddress(next))
	if !ok {
		return
	}
	m.Payload = payload
	_ = ctx.Send(newNext, m, pri)
}

func (pt *Protocol) deliverData(ctx *core.Context, m *data) {
	if m.WantCache && m.Src != pt.self {
		_ = ctx.Send(m.Src, &cacheInfo{Key: m.Dest}, overlay.PriorityDefault)
	}
	ctx.Deliver(m.Payload, m.Typ, m.Src)
}

func (pt *Protocol) recvData(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*data)
	m.Hops++
	if m.Hops > uint8(4*pt.rows) {
		return
	}
	if pt.p.RMI {
		m.Payload = bytes.Clone(m.Payload) // the deferred hop outlives the frame
	}
	pt.rmi(ctx, func(ctx *core.Context) { pt.routeData(ctx, m, overlay.PriorityDefault) })
}

func (pt *Protocol) recvCacheInfo(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*cacheInfo)
	pt.cacheFills++
	e := cacheEntry{addr: ev.From}
	if pt.p.CacheLifetime > 0 {
		e.expires = ctx.Now().Add(pt.p.CacheLifetime)
	}
	pt.cache[m.Key] = e
}

func (pt *Protocol) apiRouteIP(ctx *core.Context, call *core.APICall) {
	if call.DestIP == pt.self {
		ctx.Deliver(call.Payload, call.PayloadType, pt.self)
		return
	}
	_ = ctx.Send(call.DestIP, &dataIP{Src: pt.self, Typ: call.PayloadType, Payload: call.Payload}, call.Priority)
}

func (pt *Protocol) recvDataIP(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*dataIP)
	if pt.p.RMI {
		m.Payload = bytes.Clone(m.Payload) // the deferred delivery outlives the frame
	}
	pt.rmi(ctx, func(ctx *core.Context) { ctx.Deliver(m.Payload, m.Typ, m.Src) })
}

func (pt *Protocol) apiError(ctx *core.Context, call *core.APICall) {
	pt.forget(ctx, call.Failed)
}

func contains(s []overlay.Address, a overlay.Address) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}

func remove(s []overlay.Address, a overlay.Address) []overlay.Address {
	out := s[:0]
	for _, x := range s {
		if x != a {
			out = append(out, x)
		}
	}
	return out
}
