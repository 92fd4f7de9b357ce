package core

import (
	"bytes"
	"cmp"
	"maps"
	"slices"
	"time"

	"macedon/internal/bloom"
	"macedon/internal/overlay"
)

// The action library: the MACEDON primitives that generated transitions call
// and that neither a Context method nor the standard library already
// provides. Each is compiled here once, so a primitive is tested by its unit
// test before any spec uses it. A nodeset is a []overlay.Address that its
// state variable owns: ListAppend works in place, while ListPrepend,
// ListRemove and RingInsert return a fresh array.

// Put stores v in slot and returns slot: a send builds its message in the
// agent's send slot inside the Send call expression, so the destination is
// evaluated before the fields, as when the message was a fresh literal.
func Put[T any](slot *T, v T) *T {
	*slot = v
	return slot
}

// NeighborRandom returns a uniformly random member of the named neighbor
// list, drawn from the node's seeded source, or NilAddress if it is empty
// (neighbor_random).
func NeighborRandom(ctx *Context, list string) overlay.Address {
	if n := ctx.Neighbors(list).Random(ctx.Rand()); n != nil {
		return n.Addr
	}
	return overlay.NilAddress
}

// NeighborFirst returns the first member of the named neighbor list in
// insertion order, or NilAddress if it is empty (neighbor_first).
func NeighborFirst(ctx *Context, list string) overlay.Address {
	if n := ctx.Neighbors(list).First(); n != nil {
		return n.Addr
	}
	return overlay.NilAddress
}

// Jitter draws a uniform duration in [0, ms) milliseconds, to the
// nanosecond, from the node's seeded source, or 0 when ms is not positive:
// the spread of timer_sched(t, base, spread), which keeps nodes' soft-state
// timers out of step.
func Jitter(ctx *Context, ms int32) time.Duration {
	if ms <= 0 {
		return 0
	}
	return time.Duration(ctx.Rand().Int63n(int64(ms) * int64(time.Millisecond)))
}

// ListAppend appends a to the list unless already present (or nil), in
// place: a nodeset variable owns its array (list_append).
func ListAppend(s []overlay.Address, a overlay.Address) []overlay.Address {
	if a == overlay.NilAddress {
		return s
	}
	for _, x := range s {
		if x == a {
			return s
		}
	}
	return append(s, a)
}

// ListPrepend moves or inserts a at the front of the list (list_prepend).
func ListPrepend(s []overlay.Address, a overlay.Address) []overlay.Address {
	if a == overlay.NilAddress {
		return s
	}
	out := make([]overlay.Address, 0, len(s)+1)
	out = append(out, a)
	for _, x := range s {
		if x != a {
			out = append(out, x)
		}
	}
	return out
}

// ListRemove deletes every occurrence of a (list_remove).
func ListRemove(s []overlay.Address, a overlay.Address) []overlay.Address {
	out := make([]overlay.Address, 0, len(s))
	for _, x := range s {
		if x != a {
			out = append(out, x)
		}
	}
	return out
}

// ListTrunc bounds the list to its first n entries; a negative n empties it
// (list_trunc).
func ListTrunc(s []overlay.Address, n int32) []overlay.Address {
	if n < 0 {
		n = 0
	}
	if int32(len(s)) > n {
		return s[:n]
	}
	return s
}

// ListGet returns the i-th entry of a nodeset or nodetable, or NilAddress
// out of range (list_get, table_get).
func ListGet(s []overlay.Address, i int32) overlay.Address {
	if i < 0 || int(i) >= len(s) {
		return overlay.NilAddress
	}
	return s[i]
}

// ListRandom picks a uniformly random entry with the node's seeded source,
// or NilAddress when the list is empty (list_random).
func ListRandom(ctx *Context, s []overlay.Address) overlay.Address {
	if len(s) == 0 {
		return overlay.NilAddress
	}
	return s[ctx.Rand().Intn(len(s))]
}

// RingInsert is the bounded leaf-set insertion (ring_insert): the result
// keeps the half closest clockwise and half closest counter-clockwise peers
// of self, clockwise side first, each side ordered by ring distance. A
// negative half keeps no peers, as a negative bound does in ListTrunc.
func RingInsert(selfKey overlay.Key, self overlay.Address, s []overlay.Address, a overlay.Address, half int32) []overlay.Address {
	if a == overlay.NilAddress || a == self || slices.Contains(s, a) {
		return s
	}
	half = max(half, 0)
	var cw, ccw []overlay.Address
	for _, x := range append(append([]overlay.Address(nil), s...), a) {
		xk := overlay.HashAddress(x)
		if selfKey.Distance(xk) <= xk.Distance(selfKey) {
			cw = ringSide(cw, x, func(k overlay.Key) uint32 { return selfKey.Distance(k) }, half)
		} else {
			ccw = ringSide(ccw, x, func(k overlay.Key) uint32 { return k.Distance(selfKey) }, half)
		}
	}
	return append(cw, ccw...)
}

// ringSide insertion-sorts a into one leaf-set side and bounds its size.
func ringSide(side []overlay.Address, a overlay.Address, dist func(overlay.Key) uint32, max int32) []overlay.Address {
	side = append(side, a)
	for i := len(side) - 1; i > 0; i-- {
		if dist(overlay.HashAddress(side[i])) < dist(overlay.HashAddress(side[i-1])) {
			side[i], side[i-1] = side[i-1], side[i]
		}
	}
	if int32(len(side)) > max {
		side = side[:max]
	}
	return side
}

// TablePut stores a at index i, ignoring out-of-range indices (table_put).
func TablePut(t []overlay.Address, i int32, a overlay.Address) {
	if i >= 0 && int(i) < len(t) {
		t[i] = a
	}
}

// TableRemove clears every table slot holding a (table_remove).
func TableRemove(t []overlay.Address, a overlay.Address) {
	for i, x := range t {
		if x == a {
			t[i] = overlay.NilAddress
		}
	}
}

// MapPut stores a under k, making the keymap on its first put so that a
// zero agent is ready to use (map_put).
func MapPut(m *map[overlay.Key]overlay.Address, k overlay.Key, a overlay.Address) {
	if *m == nil {
		*m = make(map[overlay.Key]overlay.Address)
	}
	(*m)[k] = a
}

// MapRemoveValue deletes every entry whose value is a (map_remove_value).
func MapRemoveValue(m map[overlay.Key]overlay.Address, a overlay.Address) {
	for k, v := range m {
		if v == a {
			delete(m, k)
		}
	}
}

// KeyEntry returns k's entry in a keytable, making the table and the entry
// on first use: a write to an entry's field makes it. A keytable is keyed by
// key, node or int.
func KeyEntry[K cmp.Ordered, E any](t *map[K]*E, k K) *E {
	if *t == nil {
		*t = make(map[K]*E)
	}
	e := (*t)[k]
	if e == nil {
		e = new(E)
		(*t)[k] = e
	}
	return e
}

// KeyRead returns a copy of k's entry in a keytable, or the zero entry when
// k has none; a read makes nothing.
func KeyRead[K cmp.Ordered, E any](t map[K]*E, k K) E {
	if e := t[k]; e != nil {
		return *e
	}
	var zero E
	return zero
}

// Keys returns a keytable's keys in ascending order: foreach over a
// keytable visits them so, whatever order they were made in.
func Keys[K cmp.Ordered, E any](t map[K]*E) []K {
	return slices.Sorted(maps.Keys(t))
}

// ListSet makes *dst a copy of src in dst's own array: how a nodeset field
// of a keytable entry is assigned, so the entry never shares the array of
// the list it was assigned from.
func ListSet(dst *[]overlay.Address, src []overlay.Address) {
	*dst = append((*dst)[:0], src...)
}

// Seconds is the clock difference a - b, in seconds, of two readings of
// now() in nanoseconds (time_diff).
func Seconds(a, b int64) float64 {
	return time.Duration(a - b).Seconds()
}

// Millis is the clock difference a - b in milliseconds, to the microsecond
// (time_diff_ms).
func Millis(a, b int64) float64 {
	return float64(time.Duration(a-b).Microseconds()) / 1000
}

// Spread draws a period in [3/4, 5/4] of ms milliseconds, to the nanosecond,
// both ends included, from the node's seeded source (jitter): how a soft-state
// timer stays out of step with its neighbours'.
func Spread(ctx *Context, ms int32) int64 {
	d := int64(ms) * int64(time.Millisecond)
	return d*3/4 + ctx.Rand().Int63n(d/2+1)
}

// LogAppend appends m to a bounded log of messages and drops the oldest
// beyond max (log msg(l, ...)). The caller copies m's byte fields: a log
// outlives the frame a received message was decoded from.
func LogAppend[M any](l []M, m M, max int32) []M {
	l = append(l, m)
	if n := int32(len(l)); n > max {
		l = l[n-max:]
	}
	return l
}

// LogReplay sends every message of a log to dst, oldest first, at priority
// pri (log_replay): how a tree parent catches a newly adopted child up.
func LogReplay[M any, P interface {
	*M
	overlay.Message
}](ctx *Context, l []M, dst overlay.Address, pri int) {
	for i := range l {
		_ = ctx.Send(dst, P(&l[i]), pri)
	}
}

// Tally is a set of nodes in address order, each with the number of ticks
// it has stayed silent: the soft state a tree keeps of its children. Addrs
// is read as a nodeset.
type Tally struct {
	Addrs  []overlay.Address
	Missed []int32
}

// TallyHeard adds a, or resets its missed count to zero if present
// (tally_heard).
func TallyHeard(t *Tally, a overlay.Address) {
	i, found := slices.BinarySearch(t.Addrs, a)
	if !found {
		t.Addrs = slices.Insert(t.Addrs, i, a)
		t.Missed = slices.Insert(t.Missed, i, 0)
	}
	t.Missed[i] = 0
}

// TallyTick counts one missed tick against every member and drops those
// silent for more than max ticks (tally_tick).
func TallyTick(t *Tally, max int32) {
	n := 0
	for i, a := range t.Addrs {
		if missed := t.Missed[i] + 1; missed <= max {
			t.Addrs[n], t.Missed[n] = a, missed
			n++
		}
	}
	t.Addrs, t.Missed = t.Addrs[:n], t.Missed[:n]
}

// TallyRemove drops a (tally_remove).
func TallyRemove(t *Tally, a overlay.Address) {
	if i, found := slices.BinarySearch(t.Addrs, a); found {
		t.Addrs = slices.Delete(t.Addrs, i, i+1)
		t.Missed = slices.Delete(t.Missed, i, i+1)
	}
}

// RouteMsg routes one of the protocol's own messages toward key through the
// layer below (route msg(key, ...)). The message is encoded before the call
// returns, so it may live in a send slot.
func RouteMsg(ctx *Context, key overlay.Key, m overlay.Message) error {
	frame, err := ctx.EncodeFrame(m)
	if err != nil {
		return err
	}
	return ctx.Route(key, frame, ProtocolPayload, overlay.PriorityDefault)
}

// MulticastMsg disseminates one of the protocol's own messages to a group
// through the layer below (multicast msg(group, ...)).
func MulticastMsg(ctx *Context, group overlay.Key, m overlay.Message) error {
	frame, err := ctx.EncodeFrame(m)
	if err != nil {
		return err
	}
	return ctx.Multicast(group, frame, ProtocolPayload, overlay.PriorityDefault)
}

// CollectMsg sends one of the protocol's own messages up the group's tree
// toward its root through the layer below (collect msg(group, ...)): the
// RanSub collect downcall. Each hop's forward transition may rewrite it.
func CollectMsg(ctx *Context, group overlay.Key, m overlay.Message) error {
	frame, err := ctx.EncodeFrame(m)
	if err != nil {
		return err
	}
	return ctx.Collect(group, frame, ProtocolPayload, overlay.PriorityDefault)
}

// Sample keeps a uniform subsample of at most n entries of a list, drawn
// from the node's seeded source: the list is shuffled in place and cut to n
// (sample). A list no longer than n is left as it is and draws nothing.
func Sample[T any](ctx *Context, s []T, n int32) []T {
	if int32(len(s)) <= n {
		return s
	}
	ctx.Rand().Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s[:max(n, 0)]
}

// Ticket is one entry of a tickets list: a node and the wire bytes of its
// block summary, the advertisement Bullet's RanSub epochs carry.
type Ticket struct {
	Addr    overlay.Address
	Summary []byte
}

// WriteTickets encodes a tickets field: a u16 count, then each ticket's
// address and length-prefixed summary.
func WriteTickets(w *overlay.Writer, ts []Ticket) {
	w.U16(uint16(len(ts)))
	for _, t := range ts {
		w.Addr(t.Addr)
		w.Bytes32(t.Summary)
	}
}

// ReadTickets decodes a tickets field into dst's array. Each summary is a
// view of the frame, valid for the transition: a tickets variable keeps
// copies (TicketsCopy, TicketMerge).
func ReadTickets(r *overlay.Reader, dst []Ticket) []Ticket {
	n := int(r.U16())
	dst = dst[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		dst = append(dst, Ticket{Addr: r.Addr(), Summary: r.Bytes32()})
	}
	return dst
}

// TicketOf is the one-ticket list [{a, summary}] (ticket).
func TicketOf(a overlay.Address, summary []byte) []Ticket {
	return []Ticket{{Addr: a, Summary: summary}}
}

// TicketAdd appends the ticket {a, summary} (ticket_add).
func TicketAdd(ts []Ticket, a overlay.Address, summary []byte) []Ticket {
	return append(ts, Ticket{Addr: a, Summary: summary})
}

// TicketMerge appends src's tickets to dst with their summaries cloned, so
// dst keeps them past the frame src was decoded from (ticket_merge).
func TicketMerge(dst, src []Ticket) []Ticket {
	for _, t := range src {
		dst = append(dst, Ticket{Addr: t.Addr, Summary: bytes.Clone(t.Summary)})
	}
	return dst
}

// TicketsCopy makes *dst a copy of src, summaries cloned: how a tickets
// variable is assigned.
func TicketsCopy(dst *[]Ticket, src []Ticket) {
	*dst = TicketMerge((*dst)[:0], src)
}

// TicketNode is the node of the i-th ticket, or NilAddress out of range
// (ticket_node).
func TicketNode(ts []Ticket, i int32) overlay.Address {
	if i < 0 || int(i) >= len(ts) {
		return overlay.NilAddress
	}
	return ts[i].Addr
}

// TicketSummary is the summary of the i-th ticket, or nil out of range
// (ticket_summary).
func TicketSummary(ts []Ticket, i int32) []byte {
	if i < 0 || int(i) >= len(ts) {
		return nil
	}
	return ts[i].Summary
}

// Blocks is a stream's block store (a blocks variable): every block held,
// keyed by the incarnation stamp of the source that sent it and its
// sequence number; the highest sequence number held of each of the newest
// incarnations; and a bloom summary of the keys held, which peers compare
// to find the blocks they lack. The zero store holds nothing and has no
// summary until BlockReset sizes one.
type Blocks struct {
	held    map[blockID]heldBlock
	high    map[int64]int32
	streams int32
	summary *bloom.Filter
	want    []int32 // BlockMissing's result, reused
}

type blockID struct {
	inc int64
	seq int32
}

type heldBlock struct {
	typ     int32
	payload []byte
}

// summaryKey mixes the incarnation into a block's summary key, so a summary
// advertises (incarnation, seq) pairs, not bare seqs.
func summaryKey(inc int64, seq int32) uint64 {
	return uint64(inc) ^ (uint64(uint32(seq))+1)*0x9E3779B97F4A7C15
}

// BlockReset empties the store, gives it a summary of bits bits and keeps
// the high-water marks of the newest streams incarnations (block_reset).
func BlockReset(b *Blocks, bits, streams int32) {
	*b = Blocks{held: map[blockID]heldBlock{}, high: map[int64]int32{},
		streams: streams, summary: bloom.New(int(bits), 4)}
}

// BlockPut stores a copy of a block unless it is held already, and reports
// whether it was new (block_put).
func BlockPut(b *Blocks, inc int64, seq, typ int32, payload []byte) bool {
	k := blockID{inc, seq}
	if _, dup := b.held[k]; dup {
		return false
	}
	if b.held == nil {
		b.held, b.high = map[blockID]heldBlock{}, map[int64]int32{}
	}
	b.held[k] = heldBlock{typ: typ, payload: bytes.Clone(payload)}
	if b.summary != nil {
		b.summary.Add(summaryKey(inc, seq))
	}
	if hi, ok := b.high[inc]; !ok || seq > hi {
		b.high[inc] = seq
		// Mesh recovery chases live streams: keep the newest incarnations.
		for len(b.high) > int(max(b.streams, 0)) {
			delete(b.high, slices.Min(slices.Collect(maps.Keys(b.high))))
		}
	}
	return true
}

// BlockHas reports whether the block is held (block_has).
func BlockHas(b *Blocks, inc int64, seq int32) bool {
	_, ok := b.held[blockID{inc, seq}]
	return ok
}

// BlockTyp is a held block's payload type, 0 if it is not held (block_typ).
func BlockTyp(b *Blocks, inc int64, seq int32) int32 { return b.held[blockID{inc, seq}].typ }

// BlockPayload is a held block's payload, nil if it is not held
// (block_payload).
func BlockPayload(b *Blocks, inc int64, seq int32) []byte {
	return b.held[blockID{inc, seq}].payload
}

// Len is the number of blocks held.
func (b *Blocks) Len() int { return len(b.held) }

// BlockIncs lists the incarnations whose high-water marks are kept, newest
// first (block_incs): stamps are init-clock readings, so higher is newer.
func BlockIncs(b *Blocks) []int64 { return BlockStreams(b, nil) }

// BlockStreams lists the incarnations the store tracks together with those
// in adv, each once, newest first (block_streams): the streams a peer's
// summary is probed for.
func BlockStreams(b *Blocks, adv []int64) []int64 {
	out := slices.AppendSeq(slices.Clone(adv), maps.Keys(b.high))
	slices.Sort(out)
	out = slices.Compact(out)
	slices.Reverse(out)
	return out
}

// BlockMissing lists, in ascending order, up to budget blocks of incarnation
// inc that the store lacks and the peer summary (its wire bytes) holds,
// probing seqs below the store's high-water mark plus window, or below
// window when inc is not tracked (block_missing). An undecodable summary
// holds nothing. The result is reused by the next call.
func BlockMissing(b *Blocks, summary []byte, inc int64, budget, window int32) []int32 {
	b.want = b.want[:0]
	var f bloom.Filter
	if f.UnmarshalBinary(summary) != nil {
		return b.want
	}
	top := window
	if hi, ok := b.high[inc]; ok {
		top = hi + window
	}
	for seq := int32(0); seq < top && int32(len(b.want)) < budget; seq++ {
		if !BlockHas(b, inc, seq) && f.Contains(summaryKey(inc, seq)) {
			b.want = append(b.want, seq)
		}
	}
	return b.want
}

// BlockSummary is the wire form of the store's summary, nil before
// BlockReset (block_summary).
func BlockSummary(b *Blocks) []byte {
	if b.summary == nil {
		return nil
	}
	enc, _ := b.summary.MarshalBinary()
	return enc
}

// BlockDisjoint estimates how much of what a peer's summary (its wire
// bytes) holds this store lacks, in [0, 1], or -1 when either summary is
// missing or undecodable (block_disjoint): the score Bullet ranks its
// candidate peers by.
func BlockDisjoint(b *Blocks, summary []byte) float64 {
	var f bloom.Filter
	if b.summary == nil || f.UnmarshalBinary(summary) != nil {
		return -1
	}
	return b.summary.EstimateDisjointness(&f)
}

// Clusters is NICE's per-layer cluster table (a clusters variable): for each
// layer this node belongs to, bottom up, the cluster's leader, the leader
// of the cluster one layer up, and its members, self included; with the
// RTTs this node measured, the rows of RTTs its clustermates gossiped, and
// when each member was last heard. The functions that change a cluster send
// the cluster_update views the change owes, in the node's message slot for
// them (ViewMsg), each to the members in address order.
type Clusters struct {
	layers   []cluster
	dists    map[overlay.Address]time.Duration
	matrix   map[overlay.Address]map[overlay.Address]time.Duration
	lastSeen map[overlay.Address]int64
	fan      []overlay.Address // ClusterFanout's result, reused
}

type cluster struct {
	leader, parent overlay.Address
	members        []overlay.Address // ascending
}

// ViewMsg is what a cluster view travels in: a message whose fields are the
// layer, the cluster's leader, the leader one layer up and the members.
type ViewMsg interface {
	~struct {
		Layer        int32
		Leader       overlay.Address
		ParentLeader overlay.Address
		Members      []overlay.Address
	}
}

type clusterView struct {
	Layer        int32
	Leader       overlay.Address
	ParentLeader overlay.Address
	Members      []overlay.Address
}

// sendView sends a view to one node, built in the message slot.
func sendView[M ViewMsg, P interface {
	*M
	overlay.Message
}](ctx *Context, slot *M, to overlay.Address, v clusterView) {
	*slot = M(v)
	_ = ctx.Send(to, P(slot), overlay.PriorityDefault)
}

// memberSet is a set of members, listed in address order.
func memberSet(as ...overlay.Address) []overlay.Address {
	s := slices.Clone(as)
	slices.Sort(s)
	return slices.Compact(s)
}

// Len is the number of layers this node belongs to (cluster_layers).
func (c *Clusters) Len() int32 { return int32(len(c.layers)) }

func (c *Clusters) at(l int32) *cluster {
	if l < 0 || int(l) >= len(c.layers) {
		return &cluster{}
	}
	return &c.layers[l]
}

// Leader is the leader of this node's cluster at layer l, NilAddress out of
// range (cluster_leader).
func (c *Clusters) Leader(l int32) overlay.Address { return c.at(l).leader }

// Parent is the leader one layer above layer l's cluster, as its view names
// it (cluster_parent).
func (c *Clusters) Parent(l int32) overlay.Address { return c.at(l).parent }

// Members lists this node's cluster at layer l in address order, nil out of
// range (cluster_members). The list is the table's own: read it, do not
// keep it.
func (c *Clusters) Members(l int32) []overlay.Address { return c.at(l).members }

// Of is the lowest layer whose cluster holds a, or -1 (cluster_of).
func (c *Clusters) Of(a overlay.Address) int32 {
	for l := range c.layers {
		if _, ok := slices.BinarySearch(c.layers[l].members, a); ok {
			return int32(l)
		}
	}
	return -1
}

// Known reports whether this node has measured its RTT to a (dist_known).
func (c *Clusters) Known(a overlay.Address) bool {
	_, ok := c.dists[a]
	return ok
}

// DistAddrs lists the nodes this node has measured, in address order
// (dist_addrs); DistValues lists the RTTs, in nanoseconds, in the same order
// (dist_values): the distance vector a heartbeat gossips.
func (c *Clusters) DistAddrs() []overlay.Address {
	return slices.Sorted(maps.Keys(c.dists))
}

// DistValues: see DistAddrs.
func (c *Clusters) DistValues() []int64 {
	out := make([]int64, 0, len(c.dists))
	for _, a := range c.DistAddrs() {
		out = append(out, int64(c.dists[a]))
	}
	return out
}

// DistSet records a measured RTT to a, in nanoseconds (dist_set).
func DistSet(c *Clusters, a overlay.Address, rtt int64) {
	if c.dists == nil {
		c.dists = map[overlay.Address]time.Duration{}
	}
	c.dists[a] = time.Duration(rtt)
}

// DistRow stores the distance vector from gossiped: RTTs in nanoseconds,
// parallel to addrs (dist_row).
func DistRow(c *Clusters, from overlay.Address, addrs []overlay.Address, rtts []int64) {
	row := make(map[overlay.Address]time.Duration, len(addrs))
	for i, a := range addrs {
		if i < len(rtts) {
			row[a] = time.Duration(rtts[i])
		}
	}
	if c.matrix == nil {
		c.matrix = map[overlay.Address]map[overlay.Address]time.Duration{}
	}
	c.matrix[from] = row
}

// ClusterHeard records that a was heard at now, a clock reading in
// nanoseconds (cluster_heard).
func ClusterHeard(c *Clusters, a overlay.Address, now int64) {
	if c.lastSeen == nil {
		c.lastSeen = map[overlay.Address]int64{}
	}
	c.lastSeen[a] = now
}

// rtt is the a↔b RTT this node measured or was told, if it knows one.
func (c *Clusters) rtt(self, a, b overlay.Address) (time.Duration, bool) {
	if a == b {
		return 0, true
	}
	if a == self {
		if d, ok := c.dists[b]; ok {
			return d, true
		}
	}
	if d, ok := c.matrix[a][b]; ok {
		return d, true
	}
	if b == self {
		if d, ok := c.dists[a]; ok {
			return d, true
		}
	}
	d, ok := c.matrix[b][a]
	return d, ok
}

// dist is the best estimate of the a↔b RTT: a second when unknown.
func (c *Clusters) dist(self, a, b overlay.Address) time.Duration {
	if d, ok := c.rtt(self, a, b); ok {
		return d
	}
	return time.Second
}

// center is the graph-theoretic center of a member set: the member whose
// largest distance to the others is least, ties to the lowest address.
func (c *Clusters) center(self overlay.Address, members []overlay.Address) overlay.Address {
	best, bestMax := overlay.NilAddress, time.Duration(1<<63-1)
	for _, a := range members {
		var worst time.Duration
		for _, b := range members {
			worst = max(worst, c.dist(self, a, b))
		}
		if worst < bestMax || worst == bestMax && (best == overlay.NilAddress || a < best) {
			best, bestMax = a, worst
		}
	}
	return best
}

// ClusterCenter is the center of layer l's cluster (cluster_center).
func ClusterCenter(ctx *Context, c *Clusters, l int32) overlay.Address {
	return c.center(ctx.Self(), c.at(l).members)
}

// ClusterMapped reports whether this node knows the RTT between every two
// members of layer l's cluster (cluster_mapped). A split waits for it: split
// on guesses, the parts straddle sites.
func ClusterMapped(ctx *Context, c *Clusters, l int32) bool {
	ms := c.at(l).members
	for i := range ms {
		for j := i + 1; j < len(ms); j++ {
			if _, ok := c.rtt(ctx.Self(), ms[i], ms[j]); !ok {
				return false
			}
		}
	}
	return true
}

// ClusterFound makes this node the lone member and leader of a cluster at
// layer 0, as the rendezvous point starts (cluster_found).
func ClusterFound(ctx *Context, c *Clusters) {
	c.layers = []cluster{{leader: ctx.Self(), members: []overlay.Address{ctx.Self()}}}
}

// ClusterElect records a as the leader of layer l's cluster
// (cluster_elect).
func ClusterElect(c *Clusters, l int32, a overlay.Address) { c.at(l).leader = a }

// ClusterAnnounce sends the view of layer l's cluster to every other member
// and reports the members to the layer above (cluster_announce): how a
// leader keeps its members' views from diverging.
func ClusterAnnounce[M ViewMsg, P interface {
	*M
	overlay.Message
}](ctx *Context, c *Clusters, slot *M, l int32) {
	cl := c.layers[l]
	v := clusterView{Layer: l, Leader: cl.leader, ParentLeader: cl.parent, Members: cl.members}
	for _, a := range cl.members {
		if a != ctx.Self() {
			sendView[M, P](ctx, slot, a, v)
		}
	}
	ctx.NotifyNeighbors(overlay.NbrTypeClusterMember, slices.Clone(cl.members))
}

// ClusterAdmit answers from's request to join this node's cluster at layer
// (cluster_admit). A fellow leader asking one layer above the top grows the
// hierarchy, with this node leading. A request above the top is redirected
// toward the highest leader this node knows, and one for a cluster this
// node does not lead is bounced to its leader, each with a provisional view
// listing the asker. Otherwise the asker becomes a member and the leader
// broadcasts the view; a refresh from a member changes nothing.
func ClusterAdmit[M ViewMsg, P interface {
	*M
	overlay.Message
}](ctx *Context, c *Clusters, slot *M, from overlay.Address, layer int32) {
	self, n := ctx.Self(), int32(len(c.layers))
	switch {
	case layer == n && layer > 0 && c.layers[layer-1].leader == self:
		c.layers = append(c.layers, cluster{leader: self, members: memberSet(self, from)})
		ClusterAnnounce[M, P](ctx, c, slot, layer)
	case layer >= n:
		if n == 0 {
			return
		}
		lead := c.layers[n-1].leader
		if lead == from || lead == overlay.NilAddress {
			return // the asker already heads the tallest chain we know
		}
		sendView[M, P](ctx, slot, from, clusterView{Layer: layer, Leader: lead, Members: []overlay.Address{lead, from}})
	case c.layers[layer].leader != self:
		cl := c.layers[layer]
		ms := append(slices.Clone(cl.members), from)
		sendView[M, P](ctx, slot, from, clusterView{Layer: layer, Leader: cl.leader, ParentLeader: cl.parent, Members: ms})
	default:
		cl := &c.layers[layer]
		i, member := slices.BinarySearch(cl.members, from)
		if member {
			return
		}
		cl.members = slices.Insert(cl.members, i, from)
		ClusterAnnounce[M, P](ctx, c, slot, layer)
	}
}

// ClusterInstall adopts a leader's view of layer l's cluster, adding the
// layer when l is the next one up, and records every member as heard at now
// (cluster_install).
func ClusterInstall(ctx *Context, c *Clusters, l int32, leader, parent overlay.Address, members []overlay.Address, now int64) {
	if int(l) == len(c.layers) {
		c.layers = append(c.layers, cluster{})
	}
	c.layers[l] = cluster{leader: leader, parent: parent, members: memberSet(members...)}
	for _, a := range members {
		ClusterHeard(c, a, now)
	}
}

// ClusterLeave gives up this node's clusters at layers from and up
// (cluster_leave), handing each seat to an heir: heir at layer from, and
// above it whoever now leads the layer below. Each cluster left gets a view
// with the heir in this node's place, and, where this node led, with the
// heir as leader, or with no heir the center of the members that remain.
// Without the hand-off a cluster this node led keeps naming it as leader,
// and it and every cluster below it are cut off from the stream for good.
func ClusterLeave[M ViewMsg, P interface {
	*M
	overlay.Message
}](ctx *Context, c *Clusters, slot *M, from int32, heir overlay.Address) {
	self := ctx.Self()
	for i := max(from, 0); int(i) < len(c.layers); i++ {
		cl := c.layers[i]
		members := slices.DeleteFunc(slices.Clone(cl.members), func(a overlay.Address) bool { return a == self })
		if heir != overlay.NilAddress && heir != self {
			members = memberSet(append(members, heir)...)
		}
		leader := cl.leader
		if leader == self {
			leader = heir
			if leader == overlay.NilAddress || leader == self {
				leader = c.center(self, members)
			}
		}
		v := clusterView{Layer: i, Leader: leader, ParentLeader: cl.parent, Members: members}
		for _, a := range members {
			sendView[M, P](ctx, slot, a, v)
		}
		heir = leader
	}
	if int(from) < len(c.layers) {
		c.layers = c.layers[:max(from, 0)]
	}
}

// ClusterExpire drops the members not heard for more than timeoutMs
// milliseconds before now, from every cluster (cluster_expire). A cluster
// that loses its leader elects its center; a leader broadcasts a view that
// changed.
func ClusterExpire[M ViewMsg, P interface {
	*M
	overlay.Message
}](ctx *Context, c *Clusters, slot *M, now int64, timeoutMs int32) {
	self := ctx.Self()
	for l := range c.layers {
		changed := false
		for _, a := range slices.Clone(c.layers[l].members) {
			seen, ok := c.lastSeen[a]
			if a == self || !ok || time.Duration(now-seen) <= time.Duration(timeoutMs)*time.Millisecond {
				continue
			}
			cl := &c.layers[l]
			cl.members = slices.DeleteFunc(cl.members, func(x overlay.Address) bool { return x == a })
			delete(c.matrix, a)
			changed = true
			if cl.leader == a {
				cl.leader = c.center(self, cl.members)
			}
		}
		if changed && c.layers[l].leader == self {
			ClusterAnnounce[M, P](ctx, c, slot, int32(l))
		}
	}
}

// ClusterSplit partitions layer l's oversize cluster around its two farthest
// members, each part keeping at least k members, and hands each part to its
// center: NICE's split (cluster_split). Splitting the top cluster creates
// the layer above, whose cluster is the two part leaders. This node keeps
// the part it is in, and steps down where it no longer leads.
func ClusterSplit[M ViewMsg, P interface {
	*M
	overlay.Message
}](ctx *Context, c *Clusters, slot *M, l, k int32) {
	self := ctx.Self()
	members := c.layers[l].members
	var s1, s2 overlay.Address
	var worst time.Duration = -1
	for i := range members {
		for j := i + 1; j < len(members); j++ {
			if d := c.dist(self, members[i], members[j]); d > worst {
				worst, s1, s2 = d, members[i], members[j]
			}
		}
	}
	if s1 == overlay.NilAddress || s2 == overlay.NilAddress {
		return
	}
	g1, g2 := []overlay.Address{s1}, []overlay.Address{s2}
	for _, a := range members {
		switch {
		case a == s1 || a == s2:
		case c.dist(self, a, s1) <= c.dist(self, a, s2):
			g1 = append(g1, a)
		default:
			g2 = append(g2, a)
		}
	}
	g1, g2 = memberSet(g1...), memberSet(g2...)
	// An outlier seed would otherwise lead a part of one, which merges
	// straight back into the cluster that split it off.
	g1, g2 = c.fill(self, g1, g2, s1, s2, k)
	g2, g1 = c.fill(self, g2, g1, s2, s1, k)
	l1, l2 := c.center(self, g1), c.center(self, g2)
	parent := c.layers[l].parent
	if int(l)+1 < len(c.layers) {
		parent = c.layers[l+1].leader
	} else {
		upLead := l1
		if d12, d21 := c.dist(self, l1, l2), c.dist(self, l2, l1); d21 < d12 || l2 < l1 && d12 == d21 {
			upLead = l2
		}
		parent = upLead
		up := clusterView{Layer: l + 1, Leader: upLead, Members: memberSet(l1, l2)}
		for _, lead := range []overlay.Address{l1, l2} {
			if lead != self {
				sendView[M, P](ctx, slot, lead, up)
			}
		}
		if self == l1 || self == l2 {
			c.layers = append(c.layers, cluster{leader: upLead, members: up.Members})
		}
	}
	cl := &c.layers[l]
	if _, in := slices.BinarySearch(g1, self); in {
		cl.members, cl.leader = g1, l1
	} else {
		cl.members, cl.leader = g2, l2
	}
	cl.parent = parent
	for _, part := range []clusterView{{l, l1, parent, g1}, {l, l2, parent, g2}} {
		for _, a := range part.Members {
			if a != self {
				sendView[M, P](ctx, slot, a, part)
			}
		}
	}
	if lead := c.layers[l].leader; lead != self {
		ClusterLeave[M, P](ctx, c, slot, l+1, lead)
	}
}

// fill moves members from big to small, closest to small's seed first (not
// other, big's seed), until small has k members or big would drop below k.
// Ties go to the lower address.
func (c *Clusters) fill(self overlay.Address, small, big []overlay.Address, seed, other overlay.Address, k int32) ([]overlay.Address, []overlay.Address) {
	for int32(len(small)) < k && int32(len(big)) > k {
		best, bestD := overlay.NilAddress, time.Duration(1<<63-1)
		for _, a := range big {
			if d := c.dist(self, a, seed); a != other && d < bestD {
				best, bestD = a, d
			}
		}
		big = slices.DeleteFunc(big, func(a overlay.Address) bool { return a == best })
		small = memberSet(append(small, best)...)
	}
	return small, big
}

// ClusterMerge folds layer l's undersize cluster into the closest other
// cluster of layer l+1's members (cluster_merge): each member gets a
// provisional view of that cluster listing it, this node keeps only itself
// and steps down from the layers above, and the target is returned for this
// node to join. With no other member up there it does nothing and returns
// NilAddress.
func ClusterMerge[M ViewMsg, P interface {
	*M
	overlay.Message
}](ctx *Context, c *Clusters, slot *M, l int32) overlay.Address {
	self := ctx.Self()
	upper := c.at(l + 1)
	target, best := overlay.NilAddress, time.Duration(1<<63-1)
	for _, a := range upper.members {
		if d := c.dist(self, self, a); a != self && d < best {
			target, best = a, d
		}
	}
	if target == overlay.NilAddress {
		return target
	}
	for _, a := range c.layers[l].members {
		if a != self {
			sendView[M, P](ctx, slot, a, clusterView{Layer: l, Leader: target, ParentLeader: upper.leader,
				Members: []overlay.Address{target, a}})
		}
	}
	c.layers[l].members, c.layers[l].leader = []overlay.Address{self}, target
	ClusterLeave[M, P](ctx, c, slot, l+1, target)
	return target
}

// ClusterFanout lists where a data packet from src goes on from this node,
// having arrived through the cluster at layer from (-1 at its source): every
// member of every other cluster this node belongs to, bottom layer first,
// once, but not src or this node (cluster_fanout). The list is reused by the
// next call.
func ClusterFanout(ctx *Context, c *Clusters, from int32, src overlay.Address) []overlay.Address {
	c.fan = c.fan[:0]
	for l := range c.layers {
		if int32(l) == from {
			continue
		}
		for _, a := range c.layers[l].members {
			if a != ctx.Self() && a != src && !slices.Contains(c.fan, a) {
				c.fan = append(c.fan, a)
			}
		}
	}
	return c.fan
}

// Dedup is a bounded set of packet keys, (source, incarnation, seq) (a dedup
// variable): how a node forwards and delivers each packet once.
type Dedup struct{ seen map[dedupKey]bool }

type dedupKey struct {
	src overlay.Address
	inc int64
	seq int32
}

// DedupAdd adds a packet key and reports whether it was new (dedup_add).
// Past max keys the set restarts from this one: a coarse window.
func DedupAdd(d *Dedup, src overlay.Address, inc int64, seq, max int32) bool {
	k := dedupKey{src, inc, seq}
	if d.seen[k] {
		return false
	}
	if d.seen == nil {
		d.seen = map[dedupKey]bool{}
	}
	d.seen[k] = true
	if int32(len(d.seen)) > max {
		d.seen = map[dedupKey]bool{k: true}
	}
	return true
}
