package core

import (
	"cmp"
	"maps"
	"slices"
	"time"

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
