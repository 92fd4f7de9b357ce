package core_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
)

// TestRingInsertNegativeBound: a negative half keeps no peers, as a negative
// bound does in ListTrunc, instead of slicing a side to a negative length. A
// spec reaches this through an int auxiliary variable a scenario sets.
func TestRingInsertNegativeBound(t *testing.T) {
	self := overlay.Address(1)
	for _, half := range []int32{-1, -7, 0} {
		got := core.RingInsert(overlay.HashAddress(self), self, []overlay.Address{2, 3}, 4, half)
		if len(got) != 0 {
			t.Errorf("half %d: leaf set %v, want empty", half, got)
		}
	}
	if got := core.ListTrunc([]overlay.Address{2, 3}, -1); len(got) != 0 {
		t.Errorf("ListTrunc(-1) = %v, want empty", got)
	}
}

// TestRingInsertKeepsClosestPerSide: after any sequence of insertions the
// leaf set holds, clockwise side first, the half peers closest to self on
// each side of the ring among every address inserted, each side ordered by
// ring distance: the same set a brute-force sort of all of them gives.
func TestRingInsertKeepsClosestPerSide(t *testing.T) {
	const half = 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		self := overlay.Address(rng.Intn(1 << 20))
		selfKey := overlay.HashAddress(self)
		var leaves, seen []overlay.Address
		for step := 0; step < 60; step++ {
			a := overlay.Address(rng.Intn(200))
			leaves = core.RingInsert(selfKey, self, leaves, a, half)
			if a != overlay.NilAddress && a != self && !slices.Contains(seen, a) {
				seen = append(seen, a)
			}
			var cw, ccw []overlay.Address
			for _, x := range seen {
				xk := overlay.HashAddress(x)
				if selfKey.Distance(xk) <= xk.Distance(selfKey) {
					cw = append(cw, x)
				} else {
					ccw = append(ccw, x)
				}
			}
			slices.SortStableFunc(cw, func(x, y overlay.Address) int {
				return int(selfKey.Distance(overlay.HashAddress(x))) - int(selfKey.Distance(overlay.HashAddress(y)))
			})
			slices.SortStableFunc(ccw, func(x, y overlay.Address) int {
				return int(overlay.HashAddress(x).Distance(selfKey)) - int(overlay.HashAddress(y).Distance(selfKey))
			})
			want := append(cw[:min(half, len(cw))], ccw[:min(half, len(ccw))]...)
			if !slices.Equal(leaves, want) {
				t.Fatalf("seed %d step %d: leaf set %v, want %v", seed, step, leaves, want)
			}
		}
	}
}

// TestTablePrimitives: indices outside the table are ignored on write and
// read as NilAddress, and a removal clears every slot holding the address.
func TestTablePrimitives(t *testing.T) {
	table := make([]overlay.Address, 4)
	for _, i := range []int32{-1, 4, 1 << 30} {
		core.TablePut(table, i, 9)
		if got := core.ListGet(table, i); got != overlay.NilAddress {
			t.Errorf("ListGet(%d) = %v out of range", i, got)
		}
	}
	core.TablePut(table, 0, 5)
	core.TablePut(table, 3, 5)
	core.TablePut(table, 2, 6)
	if !slices.Equal(table, []overlay.Address{5, 0, 6, 5}) {
		t.Fatalf("table %v after puts", table)
	}
	core.TableRemove(table, 5)
	if !slices.Equal(table, []overlay.Address{0, 0, 6, 0}) {
		t.Fatalf("table %v after removing 5", table)
	}

	var m map[overlay.Key]overlay.Address // a zero agent's keymap
	for k, a := range []overlay.Address{0, 5, 6, 5} {
		if k > 0 {
			core.MapPut(&m, overlay.Key(k), a)
		}
	}
	core.MapRemoveValue(m, 5)
	if len(m) != 1 || m[2] != 6 {
		t.Fatalf("map %v after removing value 5", m)
	}
}

// TestKeytablePrimitives: a read makes no entry, a write makes one, and
// Keys visits the keys in ascending order whatever order they were made in.
func TestKeytablePrimitives(t *testing.T) {
	type entry struct {
		On bool
		N  int32
	}
	var tbl map[overlay.Key]*entry
	if got := core.KeyRead(tbl, 7); got.On || got.N != 0 || tbl != nil {
		t.Fatalf("read of an empty table = %+v, table %v", got, tbl)
	}
	core.KeyEntry(&tbl, 7).N = 3
	if got := core.KeyRead(tbl, 7); got.N != 3 || len(tbl) != 1 {
		t.Fatalf("after a write: entry %+v, %d entries", got, len(tbl))
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl = nil
		var want []overlay.Key
		for _, i := range rng.Perm(40) {
			k := overlay.Key(i * 0x0fff_ffff)
			core.KeyEntry(&tbl, k).On = true
			want = append(want, k)
		}
		slices.Sort(want)
		if got := core.Keys(tbl); !slices.Equal(got, want) {
			t.Fatalf("seed %d: keys %v, want %v", seed, got, want)
		}
	}
}

// TestTally: under seeded heard/tick/remove sequences a tally holds the
// nodes in address order and drops exactly those silent for more than max
// ticks, as a map of last-heard tick numbers does.
func TestTally(t *testing.T) {
	const max = 3
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got core.Tally
		want := map[overlay.Address]int{} // member -> tick it was last heard
		tick := 0
		for step := 0; step < 200; step++ {
			a := overlay.Address(1 + rng.Intn(12))
			switch rng.Intn(4) {
			case 0, 1:
				core.TallyHeard(&got, a)
				want[a] = tick
			case 2:
				core.TallyTick(&got, max)
				tick++
				for m, heard := range want {
					if tick-heard > max {
						delete(want, m)
					}
				}
			case 3:
				core.TallyRemove(&got, a)
				delete(want, a)
			}
			var members []overlay.Address
			for m := range want {
				members = append(members, m)
			}
			slices.Sort(members)
			if !slices.Equal(got.Addrs, members) || len(got.Missed) != len(got.Addrs) {
				t.Fatalf("seed %d step %d: tally %v (missed %v), want %v", seed, step, got.Addrs, got.Missed, members)
			}
			for i, m := range got.Addrs {
				if int(got.Missed[i]) != tick-want[m] {
					t.Fatalf("seed %d step %d: %v missed %d ticks, want %d", seed, step, m, got.Missed[i], tick-want[m])
				}
			}
		}
	}
}

// TestKeytableKeyTypes: a keytable keyed by node or int reads, writes and
// iterates as one keyed by key, and ListSet gives an entry's nodeset field
// an array of its own.
func TestKeytableKeyTypes(t *testing.T) {
	type entry struct {
		Bw   float64
		Path []overlay.Address
	}
	var byNode map[overlay.Address]*entry
	src := []overlay.Address{4, 5}
	for _, a := range []overlay.Address{9, 2, 7} {
		core.KeyEntry(&byNode, a).Bw = float64(a)
		core.ListSet(&core.KeyEntry(&byNode, a).Path, src)
	}
	src[0] = 99
	if got := core.Keys(byNode); !slices.Equal(got, []overlay.Address{2, 7, 9}) {
		t.Fatalf("node keys %v, want ascending", got)
	}
	if got := core.KeyRead(byNode, 7); got.Bw != 7 || !slices.Equal(got.Path, []overlay.Address{4, 5}) {
		t.Fatalf("entry 7 = %+v: the path must not share the assigned list's array", got)
	}
	var byInt map[int32]*entry
	core.KeyEntry(&byInt, -3).Bw = 1
	core.KeyEntry(&byInt, 8).Bw = 2
	if got := core.Keys(byInt); !slices.Equal(got, []int32{-3, 8}) {
		t.Fatalf("int keys %v", got)
	}
}

// TestClockPrimitives: time_diff is Duration.Seconds of the difference,
// time_diff_ms is milliseconds to the microsecond, and jitter draws the
// period the draw d*3/4 + Int63n(d/2+1) gives, in [3/4, 5/4] of it.
func TestClockPrimitives(t *testing.T) {
	a, b := int64(5_123_456_789), int64(1_000_000_001)
	if got, want := core.Seconds(a, b), time.Duration(a-b).Seconds(); got != want {
		t.Errorf("Seconds = %v, want %v", got, want)
	}
	if got := core.Millis(a, b); got != 4123.456 {
		t.Errorf("Millis = %v, want 4123.456", got)
	}
	inst, err := core.DetachedInstance(&captureProto{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.ContextOf(inst)
	rng := rand.New(rand.NewSource(0)) // a detached node's seed
	for _, ms := range []int32{8000, 10000, 1} {
		d := int64(ms) * int64(time.Millisecond)
		for range 50 {
			got := core.Spread(ctx, ms)
			if want := d*3/4 + rng.Int63n(d/2+1); got != want {
				t.Fatalf("Spread(%d) = %d, want %d", ms, got, want)
			}
			if got < d*3/4 || got > d*5/4 {
				t.Fatalf("Spread(%d) = %d outside [3/4, 5/4]", ms, got)
			}
		}
	}
}

// logMsg is a message a log holds in the test below.
type logMsg struct{ N int32 }

func (m *logMsg) MsgName() string                { return "n" }
func (m *logMsg) Encode(w *overlay.Writer)       { w.I32(m.N) }
func (m *logMsg) Decode(r *overlay.Reader) error { m.N = r.I32(); return r.Err() }

// TestLogAppend: a log keeps the newest max messages, oldest first.
func TestLogAppend(t *testing.T) {
	var l []logMsg
	for i := range int32(10) {
		l = core.LogAppend(l, logMsg{N: i}, 4)
		if want := min(i+1, 4); int32(len(l)) != want || l[len(l)-1].N != i || l[0].N != i+1-want {
			t.Fatalf("after %d appends: %v", i+1, l)
		}
	}
}

// TestSample: a list no longer than n is kept as it is and draws nothing; a
// longer one is shuffled with the node's source, as rand.Shuffle does, and
// cut to n.
func TestSample(t *testing.T) {
	inst, err := core.DetachedInstance(&captureProto{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.ContextOf(inst)
	short := []int32{1, 2, 3}
	if got := core.Sample(ctx, short, 3); !slices.Equal(got, []int32{1, 2, 3}) {
		t.Fatalf("Sample of a short list = %v", got)
	}
	rng := rand.New(rand.NewSource(0)) // a detached node's seed
	want := []int32{1, 2, 3, 4, 5, 6, 7}
	rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	if got := core.Sample(ctx, []int32{1, 2, 3, 4, 5, 6, 7}, 4); !slices.Equal(got, want[:4]) {
		t.Fatalf("Sample = %v, want %v", got, want[:4])
	}
}

// TestTickets: a tickets field round-trips the wire form, and a kept list
// owns its summaries: decoding the next frame into the same slot leaves
// the copies alone.
func TestTickets(t *testing.T) {
	var w overlay.Writer
	core.WriteTickets(&w, core.TicketAdd(core.TicketOf(7, []byte("ab")), 9, []byte("xyz")))
	frame := slices.Clone(w.Bytes())
	slot := core.ReadTickets(overlay.NewReader(frame), nil)
	if len(slot) != 2 || slot[0].Addr != 7 || string(slot[1].Summary) != "xyz" {
		t.Fatalf("decoded %v", slot)
	}
	var kept, merged []core.Ticket
	core.TicketsCopy(&kept, slot)
	merged = core.TicketMerge(merged, slot)
	clear(frame)
	if string(kept[0].Summary) != "ab" || string(merged[1].Summary) != "xyz" {
		t.Fatalf("kept %v, merged %v after the frame was reused", kept, merged)
	}
	if core.TicketNode(kept, 1) != 9 || core.TicketNode(kept, 2) != overlay.NilAddress || core.TicketSummary(kept, -1) != nil {
		t.Fatal("ticket reads out of range are not nil")
	}
}

// TestBlocks: a block is stored once; the store tracks the newest streams
// incarnations; BlockMissing probes a peer's summary up to the horizon and
// the budget; and the disjointness of a store against itself is 0.
func TestBlocks(t *testing.T) {
	var b, peer core.Blocks
	core.BlockReset(&b, 2048, 2)
	core.BlockReset(&peer, 2048, 2)
	if core.BlockDisjoint(&b, core.BlockSummary(&peer)) != 0 {
		t.Fatal("two empty stores are not disjoint by 0")
	}
	payload := []byte("p")
	if !core.BlockPut(&b, 10, 0, 5, payload) || core.BlockPut(&b, 10, 0, 5, payload) {
		t.Fatal("BlockPut did not store a block exactly once")
	}
	payload[0] = 'q'
	if string(core.BlockPayload(&b, 10, 0)) != "p" || core.BlockTyp(&b, 10, 0) != 5 || !core.BlockHas(&b, 10, 0) {
		t.Fatal("the store does not hold its own copy of the block")
	}
	core.BlockPut(&b, 30, 1, 0, nil)
	core.BlockPut(&b, 20, 0, 0, nil)
	if got := core.BlockIncs(&b); !slices.Equal(got, []int64{30, 20}) {
		t.Fatalf("BlockIncs = %v, want the newest two, newest first", got)
	}
	if got := core.BlockStreams(&b, []int64{40, 20}); !slices.Equal(got, []int64{40, 30, 20}) {
		t.Fatalf("BlockStreams = %v", got)
	}
	for seq := int32(0); seq < 100; seq++ {
		core.BlockPut(&peer, 30, seq, 0, nil)
	}
	sum := core.BlockSummary(&peer)
	if d := core.BlockDisjoint(&b, sum); d <= 0 || d > 1 {
		t.Fatalf("disjointness %v of a fuller peer", d)
	}
	// Held: seq 1 of 30; horizon 1 + 8 = 9.
	if got := core.BlockMissing(&b, sum, 30, 32, 8); !slices.Equal(got, []int32{0, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("BlockMissing = %v", got)
	}
	if got := core.BlockMissing(&b, sum, 30, 3, 8); !slices.Equal(got, []int32{0, 2, 3}) {
		t.Fatalf("BlockMissing under a budget of 3 = %v", got)
	}
	if got := core.BlockMissing(&b, []byte("junk"), 30, 32, 8); len(got) != 0 {
		t.Fatalf("an undecodable summary holds %v", got)
	}
	if core.BlockDisjoint(&b, []byte("junk")) != -1 {
		t.Fatal("an undecodable summary scores above -1")
	}
}

// viewMsg is a message cluster views travel in.
type viewMsg struct {
	Layer        int32
	Leader       overlay.Address
	ParentLeader overlay.Address
	Members      []overlay.Address
}

func (m *viewMsg) MsgName() string                { return "view" }
func (m *viewMsg) Encode(w *overlay.Writer)       {}
func (m *viewMsg) Decode(r *overlay.Reader) error { return nil }

// clusterCtx is a context at node self, whose view sends fail.
func clusterCtx(t *testing.T, self overlay.Address) *core.Context {
	t.Helper()
	inst, err := core.DetachedInstanceAt(&captureProto{}, self)
	if err != nil {
		t.Fatal(err)
	}
	return core.ContextOf(inst)
}

// siteRTTs gives node 1 the RTTs among nodes 1-6: 1-3 at one site, 4-6 at
// another, 1 ms within a site and 50 ms across.
func siteRTTs(c *core.Clusters) {
	ms := int64(time.Millisecond)
	rtt := func(a, b overlay.Address) int64 {
		if (a <= 3) == (b <= 3) {
			return ms
		}
		return 50 * ms
	}
	for a := overlay.Address(1); a <= 6; a++ {
		var addrs []overlay.Address
		var rtts []int64
		for b := overlay.Address(1); b <= 6; b++ {
			addrs, rtts = append(addrs, b), append(rtts, rtt(a, b))
		}
		if a == 1 {
			for i, b := range addrs {
				core.DistSet(c, b, rtts[i])
			}
		} else {
			core.DistRow(c, a, addrs, rtts)
		}
	}
}

// TestClusterTable: admission, views, centers, split, merge, hand-off,
// expiry and fan-out, on node 1's table.
func TestClusterTable(t *testing.T) {
	ctx := clusterCtx(t, 1)
	var c core.Clusters
	var slot viewMsg
	core.ClusterFound(ctx, &c)
	for _, a := range []overlay.Address{5, 3, 6, 2, 4, 3} {
		core.ClusterAdmit(ctx, &c, &slot, a, 0)
	}
	if got := c.Members(0); !slices.Equal(got, []overlay.Address{1, 2, 3, 4, 5, 6}) || c.Leader(0) != 1 {
		t.Fatalf("layer 0 = %v led by %v", got, c.Leader(0))
	}
	if core.ClusterMapped(ctx, &c, 0) {
		t.Fatal("mapped before any RTT is known")
	}
	siteRTTs(&c)
	if !core.ClusterMapped(ctx, &c, 0) || !c.Known(4) || !slices.Equal(c.DistAddrs(), []overlay.Address{1, 2, 3, 4, 5, 6}) {
		t.Fatal("the distance table does not hold what was set")
	}
	// Every member is 50 ms from the far site: the center is the lowest.
	if got := core.ClusterCenter(ctx, &c, 0); got != 1 {
		t.Fatalf("center %v, want the lowest address of a tie", got)
	}
	// Split at the top: two site clusters, and the layer above holds their
	// leaders.
	core.ClusterSplit(ctx, &c, &slot, 0, 3)
	if got := c.Members(0); !slices.Equal(got, []overlay.Address{1, 2, 3}) || c.Leader(0) != 1 {
		t.Fatalf("after the split layer 0 = %v led by %v", got, c.Leader(0))
	}
	if c.Len() != 2 || !slices.Equal(c.Members(1), []overlay.Address{1, 4}) || c.Parent(0) != c.Leader(1) {
		t.Fatalf("after the split layer 1 = %v led by %v, layer 0's parent %v", c.Members(1), c.Leader(1), c.Parent(0))
	}
	if got := core.ClusterFanout(ctx, &c, 0, 2); !slices.Equal(got, []overlay.Address{4}) {
		t.Fatalf("fan-out from layer 0 = %v", got)
	}
	if got := core.ClusterFanout(ctx, &c, -1, 1); !slices.Equal(got, []overlay.Address{2, 3, 4}) {
		t.Fatalf("fan-out at the source = %v", got)
	}
	if c.Of(4) != 1 || c.Of(2) != 0 || c.Of(9) != -1 {
		t.Fatal("Of does not find the lowest layer holding a node")
	}
	// Merge layer 0 into the cluster of the closest other layer-1 member.
	if got := core.ClusterMerge(ctx, &c, &slot, 0); got != 4 {
		t.Fatalf("merge target %v, want 4", got)
	}
	if c.Len() != 1 || !slices.Equal(c.Members(0), []overlay.Address{1}) || c.Leader(0) != 4 {
		t.Fatalf("after the merge: %d layers, layer 0 = %v led by %v", c.Len(), c.Members(0), c.Leader(0))
	}
	// A leader's view installs, and a member silent past the timeout goes.
	core.ClusterInstall(ctx, &c, 1, 1, overlay.NilAddress, []overlay.Address{2, 1, 2}, 0)
	if !slices.Equal(c.Members(1), []overlay.Address{1, 2}) || c.Leader(1) != 1 {
		t.Fatalf("installed layer 1 = %v led by %v", c.Members(1), c.Leader(1))
	}
	core.ClusterHeard(&c, 4, int64(20*time.Second))
	core.ClusterExpire(ctx, &c, &slot, int64(20*time.Second), 15000)
	if !slices.Equal(c.Members(1), []overlay.Address{1}) || !slices.Equal(c.Members(0), []overlay.Address{1}) {
		t.Fatalf("after expiry: layer 0 %v, layer 1 %v", c.Members(0), c.Members(1))
	}
	core.ClusterLeave(ctx, &c, &slot, 1, overlay.NilAddress)
	if c.Len() != 1 {
		t.Fatalf("%d layers after leaving layer 1", c.Len())
	}
}

// TestDedup: a key is new once; past max keys the set restarts from the
// newest.
func TestDedup(t *testing.T) {
	var d core.Dedup
	if !core.DedupAdd(&d, 1, 7, 1, 2) || core.DedupAdd(&d, 1, 7, 1, 2) || !core.DedupAdd(&d, 1, 8, 1, 2) {
		t.Fatal("a key is not new exactly once, or the incarnation is not part of it")
	}
	core.DedupAdd(&d, 2, 7, 1, 2) // the third key: the set restarts
	if !core.DedupAdd(&d, 1, 7, 1, 2) || core.DedupAdd(&d, 2, 7, 1, 2) {
		t.Fatal("the window did not restart from the newest key")
	}
}
