// Package scribe implements the Scribe application-level multicast system
// [24] as a layered MACEDON agent: reverse-path distribution trees rooted at
// the DHT node owning each group key. Because it only uses the
// overlay-generic API of the layer below, the same specification runs over
// Pastry or Chord — the paper's one-line "protocol scribe uses chord"
// switch is the one-element change of the node's stack here.
package scribe

import (
	"sort"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

// Params tunes the protocol.
type Params struct {
	// RefreshPeriod is the soft-state tree refresh: members re-route their
	// joins at this period and parents expire silent children after three
	// periods (default 10 s).
	RefreshPeriod time.Duration
	// MaxChildren bounds per-group fan-out; joins beyond it are pushed down
	// to a child (the SplitStream adaptation). Zero means unbounded.
	MaxChildren int
}

func (p *Params) setDefaults() {
	if p.RefreshPeriod <= 0 {
		p.RefreshPeriod = 10 * time.Second
	}
}

// New returns a factory for Scribe agents.
func New(p Params) core.Factory {
	p.setDefaults()
	return func() core.Agent { return &Protocol{p: p} }
}

type groupState struct {
	member    bool
	forwarder bool
	root      bool
	parent    overlay.Address
	acked     time.Time                     // parent's last join_ack
	children  map[overlay.Address]time.Time // last refresh
}

// Protocol is one node's Scribe instance.
type Protocol struct {
	p Params

	self   overlay.Address
	groups map[overlay.Key]*groupState

	nextSeq   uint32
	seen      map[uint64]bool // (src, seq) dedup across reconvergence
	delivered uint64          // multicast payloads handed to this node's member
}

// ProtocolName implements the engine's naming hook.
func (s *Protocol) ProtocolName() string { return "scribe" }

// Children returns the current children of this node for a group.
func (s *Protocol) Children(g overlay.Key) []overlay.Address {
	gs, ok := s.groups[g]
	if !ok {
		return nil
	}
	out := make([]overlay.Address, 0, len(gs.children))
	for a := range gs.children {
		out = append(out, a)
	}
	return out
}

// Parent returns this node's tree parent for a group (NilAddress if none).
func (s *Protocol) Parent(g overlay.Key) overlay.Address {
	if gs, ok := s.groups[g]; ok {
		return gs.parent
	}
	return overlay.NilAddress
}

// IsRoot reports whether this node claims the group's root.
func (s *Protocol) IsRoot(g overlay.Key) bool {
	gs, ok := s.groups[g]
	return ok && gs.root
}

// Member reports group membership.
func (s *Protocol) Member(g overlay.Key) bool {
	gs, ok := s.groups[g]
	return ok && gs.member
}

// Delivered counts multicast payloads delivered to the local member.
func (s *Protocol) Delivered() uint64 { return s.delivered }

func (s *Protocol) group(g overlay.Key) *groupState {
	gs, ok := s.groups[g]
	if !ok {
		gs = &groupState{children: make(map[overlay.Address]time.Time)}
		s.groups[g] = gs
	}
	return gs
}

// Define declares the Scribe FSM: the Go equivalent of scribe.mac.
func (s *Protocol) Define(d *core.Def) {
	d.States("running")
	d.Addressing(core.HashAddressing)

	// All messages ride the DHT below: no transport bindings.
	d.Message("join_g", func() overlay.Message { return &joinG{} }, "")
	d.Message("join_ack", func() overlay.Message { return &joinAck{} }, "")
	d.Message("join_redirect", func() overlay.Message { return &joinRedirect{} }, "")
	d.Message("leave_g", func() overlay.Message { return &leaveG{} }, "")
	d.Message("create_g", func() overlay.Message { return &createG{} }, "")
	d.Message("mdata", func() overlay.Message { return &mdata{} }, "")
	d.Message("cdata", func() overlay.Message { return &cdata{} }, "")
	d.Message("acast", func() overlay.Message { return &acast{} }, "")

	d.PeriodicTimer("refresh", s.p.RefreshPeriod)

	d.OnAPI(overlay.APIInit, core.In(core.StateInit), core.Write, s.apiInit)
	d.OnAPI(overlay.APICreateGroup, core.Any, core.Write, s.apiCreateGroup)
	d.OnAPI(overlay.APIJoin, core.Any, core.Write, s.apiJoin)
	d.OnAPI(overlay.APILeave, core.Any, core.Write, s.apiLeave)
	d.OnAPI(overlay.APIMulticast, core.Any, core.Read, s.apiMulticast)
	d.OnAPI(overlay.APIAnycast, core.Any, core.Read, s.apiAnycast)
	d.OnAPI(overlay.APICollect, core.Any, core.Read, s.apiCollect)
	d.OnAPI(overlay.APIRoute, core.Any, core.Read, s.apiRoute)
	d.OnAPI(overlay.APIRouteIP, core.Any, core.Read, s.apiRouteIP)

	d.OnRecv("join_g", core.Any, core.Write, s.recvJoin)
	d.OnForward("join_g", core.Any, core.Write, s.forwardJoin)
	d.OnRecv("join_ack", core.Any, core.Write, s.recvJoinAck)
	d.OnRecv("join_redirect", core.Any, core.Write, s.recvJoinRedirect)
	d.OnRecv("leave_g", core.Any, core.Write, s.recvLeave)
	d.OnRecv("create_g", core.Any, core.Write, s.recvCreate)
	d.OnRecv("mdata", core.Any, core.Read, s.recvMdata)
	d.OnRecv("cdata", core.Any, core.Read, s.recvCdata)
	d.OnRecv("acast", core.Any, core.Read, s.recvAcast)

	d.OnTimer("refresh", core.In("running"), core.Write, s.onRefresh)
}

func (s *Protocol) apiInit(ctx *core.Context, call *core.APICall) {
	s.self = ctx.Self()
	s.groups = make(map[overlay.Key]*groupState)
	s.seen = make(map[uint64]bool)
	ctx.StateChange("running")
	ctx.TimerSched("refresh", s.p.RefreshPeriod/2+time.Duration(ctx.Rand().Int63n(int64(s.p.RefreshPeriod))))
}

func (s *Protocol) send(ctx *core.Context, dst overlay.Address, m overlay.Message) {
	_ = ctx.Send(dst, m, overlay.PriorityDefault)
}

func (s *Protocol) routeToRoot(ctx *core.Context, g overlay.Key, m overlay.Message) {
	frame, err := ctx.EncodeFrame(m)
	if err != nil {
		return
	}
	_ = ctx.Route(g, frame, core.ProtocolPayload, overlay.PriorityDefault)
}

// --- group management -----------------------------------------------------

func (s *Protocol) apiCreateGroup(ctx *core.Context, call *core.APICall) {
	s.routeToRoot(ctx, call.Group, &createG{Group: call.Group})
}

func (s *Protocol) recvCreate(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*createG)
	gs := s.group(m.Group)
	gs.root = true
	gs.forwarder = true
}

func (s *Protocol) apiJoin(ctx *core.Context, call *core.APICall) {
	gs := s.group(call.Group)
	gs.member = true
	if gs.forwarder || gs.root {
		return // already on the tree
	}
	s.routeToRoot(ctx, call.Group, &joinG{Group: call.Group, Joiner: s.self})
}

// addChild grafts a child, enforcing the pushdown bound. It reports whether
// the child was accepted; on refusal it returns a child to push down to.
func (s *Protocol) addChild(ctx *core.Context, g overlay.Key, child overlay.Address) (bool, overlay.Address) {
	gs := s.group(g)
	if child == s.self {
		return true, overlay.NilAddress
	}
	if _, have := gs.children[child]; have {
		gs.children[child] = ctx.Now()
		return true, overlay.NilAddress
	}
	if s.p.MaxChildren > 0 && len(gs.children) >= s.p.MaxChildren {
		// Pushdown: bounce to an existing child, chosen through the
		// seeded PRNG so runs reproduce.
		kids := sortedChildren(gs)
		return false, kids[ctx.Rand().Intn(len(kids))]
	}
	gs.children[child] = ctx.Now()
	ctx.NotifyNeighbors(overlay.NbrTypeChild, s.Children(g))
	return true, overlay.NilAddress
}

// forwardJoin runs at intermediate DHT hops: graft the reverse path.
func (s *Protocol) forwardJoin(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*joinG)
	if m.Joiner == s.self {
		return // our own join leaving the origin: pass through untouched
	}
	gs := s.group(m.Group)
	accepted, pushTo := s.addChild(ctx, m.Group, m.Joiner)
	if !accepted {
		s.send(ctx, m.Joiner, &joinRedirect{Group: m.Group, To: pushTo})
		ev.Quash = true
		return
	}
	s.send(ctx, m.Joiner, &joinAck{Group: m.Group})
	if gs.forwarder || gs.root {
		ev.Quash = true // the tree already reaches this node
		return
	}
	gs.forwarder = true
	// Continue joining upward as ourselves.
	m.Joiner = s.self
}

// recvJoin runs at the group root (DHT delivery point) or, for Direct
// joins, at the specific parent the joiner was told to use.
func (s *Protocol) recvJoin(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*joinG)
	gs := s.group(m.Group)
	if !m.Direct {
		// DHT-delivered: this node owns the group key and is the root.
		gs.root = true
		gs.forwarder = true
	}
	accepted, pushTo := s.addChild(ctx, m.Group, m.Joiner)
	if !accepted {
		s.send(ctx, m.Joiner, &joinRedirect{Group: m.Group, To: pushTo})
		return
	}
	if m.Joiner != s.self {
		s.send(ctx, m.Joiner, &joinAck{Group: m.Group, Direct: m.Direct})
	}
}

func (s *Protocol) recvJoinAck(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*joinAck)
	gs := s.group(m.Group)
	if m.Direct && gs.parent != overlay.NilAddress && gs.parent != ev.From {
		// The answer to a refresh sent to a parent we have since left for
		// the DHT path's node: the leave we sent it followed the refresh,
		// so it no longer counts us. Going back to it would orphan us
		// under both.
		return
	}
	if gs.root && ev.From != s.self {
		// Our own revalidation join landed at another node: the DHT says
		// the group key is not ours (we became root on a cold routing
		// table). Step down and graft under the true root.
		gs.root = false
	}
	if old := gs.parent; old != overlay.NilAddress && old != ev.From {
		// Re-parenting: prune the old edge eagerly so the tree never
		// carries two upward edges for long.
		s.send(ctx, old, &leaveG{Group: m.Group})
	}
	gs.parent = ev.From
	gs.acked = ctx.Now()
	ctx.NotifyNeighbors(overlay.NbrTypeParent, []overlay.Address{ev.From})
}

func (s *Protocol) recvJoinRedirect(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*joinRedirect)
	gs := s.group(m.Group)
	if gs.parent != overlay.NilAddress || m.To == s.self {
		return
	}
	// Re-issue the join directly to the pushed-down parent.
	s.send(ctx, m.To, &joinG{Group: m.Group, Joiner: s.self, Direct: true})
}

func (s *Protocol) apiLeave(ctx *core.Context, call *core.APICall) {
	gs := s.group(call.Group)
	gs.member = false
	s.maybePrune(ctx, call.Group)
}

func (s *Protocol) maybePrune(ctx *core.Context, g overlay.Key) {
	gs := s.group(g)
	if gs.member || gs.root || len(gs.children) > 0 {
		return
	}
	gs.forwarder = false
	if gs.parent != overlay.NilAddress {
		s.send(ctx, gs.parent, &leaveG{Group: g})
		gs.parent = overlay.NilAddress
	}
}

func (s *Protocol) recvLeave(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*leaveG)
	gs := s.group(m.Group)
	delete(gs.children, ev.From)
	s.maybePrune(ctx, m.Group)
}

// onRefresh re-joins (soft state) and expires silent children and a silent
// parent. A live parent acks every refresh; dropping a dead one is what lets
// its orphan accept the push-down redirect that regrafts it.
func (s *Protocol) onRefresh(ctx *core.Context) {
	now := ctx.Now()
	horizon := 3 * s.p.RefreshPeriod
	keys := make([]overlay.Key, 0, len(s.groups))
	for g := range s.groups {
		keys = append(keys, g)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, g := range keys {
		gs := s.groups[g]
		if gs.parent != overlay.NilAddress && now.Sub(gs.acked) > horizon {
			gs.parent = overlay.NilAddress
		}
		if (gs.member || gs.forwarder) && !gs.root {
			if gs.parent != overlay.NilAddress {
				// Refresh directly with the known parent.
				s.send(ctx, gs.parent, &joinG{Group: g, Joiner: s.self, Direct: true})
			}
			// And revalidate against the DHT: the ack re-parents us onto
			// the DHT-consistent path, which is what breaks any parent
			// cycles left over from routing on cold tables.
			s.routeToRoot(ctx, g, &joinG{Group: g, Joiner: s.self})
		} else if gs.root {
			// Revalidate rootship against the DHT, member or not: if the
			// key's true owner is elsewhere (we rooted ourselves on cold
			// tables), the ack demotes us and merges the trees. A source
			// that created the group on a cold table is neither member nor
			// parent, and keeping its claim would have it multicast into a
			// tree of its own.
			s.routeToRoot(ctx, g, &joinG{Group: g, Joiner: s.self})
		}
		for child, last := range gs.children {
			if now.Sub(last) > horizon {
				delete(gs.children, child)
			}
		}
		s.maybePrune(ctx, g)
	}
}

// --- data path --------------------------------------------------------------

func (s *Protocol) apiMulticast(ctx *core.Context, call *core.APICall) {
	s.nextSeq++
	m := &mdata{Group: call.Group, Src: s.self, Seq: s.nextSeq,
		Typ: call.PayloadType, Payload: call.Payload}
	gs := s.group(call.Group)
	if gs.root {
		s.markSeen(m)
		s.disseminate(ctx, m)
		return
	}
	// Route to the root; the DHT's location cache makes repeats one hop.
	s.routeToRoot(ctx, call.Group, m)
}

func (s *Protocol) markSeen(m *mdata) bool {
	key := uint64(m.Src)<<32 | uint64(m.Seq)
	if s.seen[key] {
		return false
	}
	s.seen[key] = true
	if len(s.seen) > 8192 {
		s.seen = map[uint64]bool{key: true} // coarse window reset
	}
	return true
}

// disseminate sends m to every child and delivers it to a local member.
// Data reaches a node from its parent, which is never a child, or at the
// root over the DHT route from the source, whose last hop is typically a
// child — one that has not seen m, since the DHT only forwarded it — so no
// child is skipped.
func (s *Protocol) disseminate(ctx *core.Context, m *mdata) {
	gs := s.group(m.Group)
	for _, child := range sortedChildren(gs) {
		if child != s.self {
			s.send(ctx, child, m)
		}
	}
	if gs.member {
		s.delivered++
		ctx.Deliver(m.Payload, m.Typ, m.Src)
	}
}

func (s *Protocol) recvMdata(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*mdata)
	if !s.markSeen(m) {
		return
	}
	s.disseminate(ctx, m)
}

func (s *Protocol) apiCollect(ctx *core.Context, call *core.APICall) {
	m := &cdata{Group: call.Group, Src: s.self, Typ: call.PayloadType, Payload: call.Payload}
	s.sendCollect(ctx, m)
}

func (s *Protocol) sendCollect(ctx *core.Context, m *cdata) {
	gs := s.group(m.Group)
	if gs.root {
		// The root is the collection point: deliver upward.
		ctx.Deliver(m.Payload, m.Typ, m.Src)
		return
	}
	if gs.parent != overlay.NilAddress {
		s.send(ctx, gs.parent, m)
		return
	}
	s.routeToRoot(ctx, m.Group, m)
}

func (s *Protocol) recvCdata(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*cdata)
	// Intermediate nodes may summarize application-specifically: expose the
	// payload to the layer above via the extensible upcall, then pass it on.
	ctx.UpcallExt(opCollectTransit, m.Payload)
	s.sendCollect(ctx, m)
}

// opCollectTransit identifies collect payloads passing through this node in
// upcall_ext notifications.
const opCollectTransit = 1001

func (s *Protocol) apiAnycast(ctx *core.Context, call *core.APICall) {
	m := &acast{Group: call.Group, Src: s.self, Typ: call.PayloadType, Payload: call.Payload}
	s.routeToRoot(ctx, call.Group, m)
}

func (s *Protocol) recvAcast(ctx *core.Context, ev *core.MsgEvent) {
	m := ev.Msg.(*acast)
	gs := s.group(m.Group)
	if gs.member {
		ctx.Deliver(m.Payload, m.Typ, m.Src)
		return
	}
	m.Visited = append(m.Visited, s.self)
	// DFS down unvisited children.
	for _, child := range sortedChildren(gs) {
		if !visited(m.Visited, child) {
			s.send(ctx, child, m)
			return
		}
	}
	// Dead end: back up to the parent if it has not seen this message.
	if gs.parent != overlay.NilAddress && !visited(m.Visited, gs.parent) {
		s.send(ctx, gs.parent, m)
	}
}

// sortedChildren returns a group's children in address order so send order
// (and therefore simulation event order) is deterministic.
func sortedChildren(gs *groupState) []overlay.Address {
	out := make([]overlay.Address, 0, len(gs.children))
	for a := range gs.children {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func visited(vs []overlay.Address, a overlay.Address) bool {
	for _, v := range vs {
		if v == a {
			return true
		}
	}
	return false
}

// apiRoute / apiRouteIP pass through to the DHT so applications over Scribe
// can still use point-to-point primitives.
func (s *Protocol) apiRoute(ctx *core.Context, call *core.APICall) {
	_ = ctx.Route(call.Dest, call.Payload, call.PayloadType, call.Priority)
}

func (s *Protocol) apiRouteIP(ctx *core.Context, call *core.APICall) {
	_ = ctx.RouteIP(call.DestIP, call.Payload, call.PayloadType, call.Priority)
}
