package statecopy

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

type opaqueThing struct{ n int }

func (*opaqueThing) StateCopyOpaque() {}

type inner struct {
	id    int
	tags  []string
	links map[string]*inner
}

type world struct {
	mu      sync.Mutex
	name    string
	count   int
	when    time.Time
	buf     []byte
	nested  [3]inner
	byName  map[string]*inner
	self    *world
	iface   any
	op      *opaqueThing
	fn      func() int
	ch      chan int
	nilPtr  *inner
	nilMap  map[int]int
	nilSl   []int
	idPtr   *int      // the address of a pointee of another type
	ptrPair [2]*inner // aliased pointers
}

func buildWorld() *world {
	a := &inner{id: 1, tags: []string{"a"}, links: map[string]*inner{}}
	b := &inner{id: 2, tags: []string{"b", "bb"}, links: map[string]*inner{"a": a}}
	a.links["b"] = b // cycle
	w := &world{
		name:   "w",
		count:  7,
		when:   time.Unix(100, 0),
		buf:    []byte{1, 2, 3},
		byName: map[string]*inner{"a": a, "b": b},
		iface:  inner{id: 42, tags: []string{"iface"}},
		op:     &opaqueThing{n: 5},
		fn:     func() int { return 11 },
		ch:     make(chan int, 1),
	}
	w.self = w
	w.nested[0] = inner{id: 10, tags: []string{"n0"}}
	w.idPtr = &a.id
	w.ptrPair = [2]*inner{a, a}
	return w
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	w := buildWorld()
	a := w.byName["a"]
	origMap := w.byName
	im := Capture(w)

	// Mutate everything a branch plausibly would.
	w.name = "mutated"
	w.count = 999
	w.when = time.Unix(999, 0)
	w.buf[0] = 77
	w.buf = append(w.buf, 9)
	a.id = 1000
	a.tags = append(a.tags, "extra")
	delete(w.byName, "b")
	w.byName["c"] = &inner{id: 3}
	w.byName = map[string]*inner{"replaced": nil} // wholesale replacement
	w.nested[0].id = -1
	w.iface = "something else"
	w.op.n = 500 // opaque: must NOT be restored
	w.nilPtr = &inner{id: 4}
	w.ptrPair[1] = &inner{id: 5}

	im.Restore()

	if w.name != "w" || w.count != 7 || !w.when.Equal(time.Unix(100, 0)) {
		t.Fatalf("plain fields not restored: %q %d %v", w.name, w.count, w.when)
	}
	if len(w.buf) != 3 || w.buf[0] != 1 {
		t.Fatalf("byte slice not restored: %v", w.buf)
	}
	if w.byName == nil || len(w.byName) != 2 {
		t.Fatalf("map not restored: %v", w.byName)
	}
	if &w.byName != &w.byName || w.byName["a"] != a {
		t.Fatal("map pointer identity lost")
	}
	if got := w.byName; mapsDiffer(got, origMap) {
		t.Fatal("restored map is not the original map object")
	}
	if a.id != 1 || len(a.tags) != 1 || a.tags[0] != "a" {
		t.Fatalf("pointee not restored in place: %+v", a)
	}
	if a.links["b"].links["a"] != a {
		t.Fatal("cycle broken")
	}
	if w.nested[0].id != 10 {
		t.Fatalf("array element not restored: %+v", w.nested[0])
	}
	if v, ok := w.iface.(inner); !ok || v.id != 42 {
		t.Fatalf("interface not restored: %#v", w.iface)
	}
	if w.op.n != 500 {
		t.Fatal("opaque pointee was walked; must be shared untouched")
	}
	if w.self != w {
		t.Fatal("self pointer identity lost")
	}
	if w.nilPtr != nil || w.nilMap != nil || w.nilSl != nil {
		t.Fatal("nil references not restored to nil")
	}
	if w.ptrPair[0] != a || w.ptrPair[1] != a || w.idPtr != &a.id {
		t.Fatal("aliased pointers diverged")
	}
	if w.fn == nil || w.fn() != 11 || w.ch == nil {
		t.Fatal("func/chan references lost")
	}
}

func mapsDiffer(a, b map[string]*inner) bool {
	if len(a) != len(b) {
		return true
	}
	for k, v := range a {
		if b[k] != v {
			return true
		}
	}
	return false
}

// TestRestoreTwice checks an image survives multiple restores: the second
// rewind must be as faithful as the first even after the first branch
// corrupted state again.
func TestRestoreTwice(t *testing.T) {
	w := buildWorld()
	a := w.byName["a"]
	im := Capture(w)
	for round := 0; round < 2; round++ {
		a.id = 100 + round
		a.tags = nil
		w.byName = nil
		im.Restore()
		if a.id != 1 || len(a.tags) != 1 {
			t.Fatalf("round %d: pointee not restored: %+v", round, a)
		}
		if w.byName["a"] != a {
			t.Fatalf("round %d: map not restored", round)
		}
	}
}

// TestClosureOnlyPointer checks state reachable solely through a captured
// root pointer is restored even when a branch drops every field reference to
// it (the scheduler-closure situation: the closure keeps the pointer, the
// walker must keep its state).
func TestClosureOnlyPointer(t *testing.T) {
	a := &inner{id: 1}
	holder := struct{ p *inner }{p: a}
	im := Capture(&holder)
	holder.p = nil
	a.id = 99
	im.Restore()
	if holder.p != a || a.id != 1 {
		t.Fatalf("closure-held pointee not restored: %v %d", holder.p, a.id)
	}
}

// TestUnexportedAcrossPackages exercises walking a foreign type with
// unexported fields (time.Timer-like shapes appear all over the engine).
func TestUnexportedAcrossPackages(t *testing.T) {
	type carrier struct{ d time.Duration }
	c := &carrier{d: 5 * time.Second}
	im := Capture(c)
	c.d = time.Hour
	im.Restore()
	if c.d != 5*time.Second {
		t.Fatalf("duration not restored: %v", c.d)
	}
}

// TestMathRandRewind proves a stdlib PRNG rewinds exactly: the engine relies
// on this for per-node protocol randomness across fork branches.
func TestMathRandRewind(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		rng.Int63()
	}
	im := Capture(rng)
	want := make([]int64, 50)
	for i := range want {
		want[i] = rng.Int63()
	}
	rng.Float64()
	rng.Intn(7)
	im.Restore()
	for i := range want {
		if got := rng.Int63(); got != want[i] {
			t.Fatalf("draw %d: got %d want %d", i, got, want[i])
		}
	}
}

// scratchBuf is per-owner scratch that opts out of checkpoints by value.
type scratchBuf struct{ buf []byte }

func (*scratchBuf) StateCopyOpaque() {}

// TestOpaqueByValueInArrayUntouched: an opaque-by-value struct keeps its
// current state across Restore in an array and in a struct reached through
// an array, as it does in a struct field; the rest of each element rewinds.
// A slice comes back in a fresh array built from the captured bits.
func TestOpaqueByValueInArrayUntouched(t *testing.T) {
	type shard struct {
		s scratchBuf
		n int
	}
	w := &struct {
		arr    [2]scratchBuf
		shards [2]shard
		sl     []scratchBuf
	}{sl: []scratchBuf{{buf: []byte("s")}}}
	w.arr[0].buf = []byte("x")
	w.shards[1] = shard{s: scratchBuf{buf: []byte("p")}, n: 1}
	im := Capture(w)
	w.arr[0].buf = []byte("y")
	w.shards[1].s.buf[0] = 'q'
	w.shards[1].n = 2
	live := w.sl
	w.sl[0].buf = []byte("t")
	im.Restore()
	if string(w.arr[0].buf) != "y" || string(w.shards[1].s.buf) != "q" {
		t.Fatalf("opaque elements rewound: arr[0]=%q shards[1].s=%q, want their current y and q",
			w.arr[0].buf, w.shards[1].s.buf)
	}
	if w.shards[1].n != 1 {
		t.Fatalf("shards[1].n = %d, want the captured 1", w.shards[1].n)
	}
	if string(w.sl[0].buf) != "s" || &w.sl[0] == &live[0] {
		t.Fatalf("slice element %q, fresh array %v: want the captured bits in a new array",
			w.sl[0].buf, &w.sl[0] != &live[0])
	}
}

// Random graphs for TestCaptureRestoreRandomGraphs: every reference kind
// the walker distinguishes, nil or not at the generator's whim.
type (
	gnode struct {
		id    int
		next  *gnode
		peers []*gnode // aliases, and nil entries
		tags  []string
		rec   map[int]record
		val   any
		cells [2]cell
		fn    func()
		ch    chan int
	}
	record struct {
		vals []int
		sub  map[string]int
	}
	cell struct {
		mu      sync.Mutex
		n       int
		scratch scratchBuf
	}
	nodeRef    *gnode
	graphWorld struct {
		nodes  []*gnode
		byNode map[*gnode]int // pointer keys
		rings  [][]*gnode
		head   any
	}
)

func genAny(r *rand.Rand, pick func() *gnode) any {
	switch r.Intn(7) {
	case 0:
		return nil
	case 1:
		return pick() // possibly a nil *gnode
	case 2:
		return nodeRef(pick())
	case 3:
		return map[string]int{"a": r.Intn(9), "b": r.Intn(9)}
	case 4:
		return r.Intn(1000)
	case 5:
		return genRecord(r)
	}
	return []int{r.Intn(9), r.Intn(9)}
}

func genRecord(r *rand.Rand) record {
	var rec record
	if r.Intn(3) > 0 {
		rec.vals = []int{r.Intn(9), r.Intn(9), r.Intn(9)}
	}
	if r.Intn(3) > 0 {
		rec.sub = map[string]int{"k": r.Intn(9)}
	}
	return rec
}

// genWorld builds the same world for the same seed; all lists its nodes.
func genWorld(seed int64) (w *graphWorld, all []*gnode) {
	r := rand.New(rand.NewSource(seed))
	all = make([]*gnode, 10+r.Intn(10))
	for i := range all {
		all[i] = &gnode{id: i}
	}
	pick := func() *gnode {
		if r.Intn(5) == 0 {
			return nil
		}
		return all[r.Intn(len(all))]
	}
	for _, g := range all {
		g.next = pick() // cycles, self loops included
		if r.Intn(4) > 0 {
			g.peers = []*gnode{}
			for k := r.Intn(4); k > 0; k-- {
				g.peers = append(g.peers, pick())
			}
		}
		if r.Intn(3) > 0 {
			g.tags = []string{"t", fmt.Sprint(r.Intn(9))}
		}
		if r.Intn(3) > 0 {
			g.rec = map[int]record{}
			for k := r.Intn(4); k > 0; k-- {
				g.rec[r.Intn(20)] = genRecord(r)
			}
		}
		g.val = genAny(r, pick)
		for c := range g.cells {
			g.cells[c].n = r.Intn(100)
			g.cells[c].scratch.buf = []byte{byte(r.Intn(256))}
		}
	}
	w = &graphWorld{nodes: append([]*gnode(nil), all...), byNode: map[*gnode]int{}, head: genAny(r, pick)}
	for _, g := range all {
		if r.Intn(2) == 0 {
			w.byNode[g] = r.Intn(50)
		}
	}
	for k := r.Intn(3); k > 0; k-- {
		w.rings = append(w.rings, []*gnode{pick(), pick()})
	}
	return w, all
}

// mutate applies seeded branch mutations to the captured world. Opaque
// scratch is not part of a checkpoint, so its mutations go to the twin too.
func mutate(r *rand.Rand, w *graphWorld, all, twin []*gnode) {
	other := func() *gnode {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return &gnode{id: -1}
		}
		return all[r.Intn(len(all))]
	}
	for op := 0; op < 60; op++ {
		i := r.Intn(len(all))
		g := all[i]
		switch r.Intn(13) {
		case 0:
			g.id = r.Int()
		case 1:
			g.next = other()
		case 2:
			if len(g.peers) > 0 {
				g.peers[r.Intn(len(g.peers))] = other()
			} else {
				g.peers = append(g.peers, other())
			}
		case 3:
			g.peers = []*gnode{other()} // wholesale slice replacement
		case 4:
			if len(g.tags) > 0 {
				g.tags[0] = "mutated"
			}
			g.tags = append(g.tags, "more")
		case 5:
			for k, v := range g.rec {
				if len(v.vals) > 0 {
					v.vals[0] = -1 // the map value's array, in place
				}
				if v.sub != nil {
					v.sub["m"] = 1
				}
				if r.Intn(2) == 0 {
					delete(g.rec, k)
				}
				break
			}
		case 6:
			g.rec = map[int]record{99: {}} // wholesale map replacement
		case 7:
			switch x := g.val.(type) {
			case map[string]int:
				x["m"] = 2
			case record:
				if len(x.vals) > 0 {
					x.vals[0] = -7
				}
			case []int:
				x[0] = -3
			case *gnode:
				if x != nil {
					x.id = -9
				}
			default:
				g.val = other()
			}
		case 8:
			g.cells[r.Intn(2)].n = -1
		case 9:
			c, b := r.Intn(2), byte(r.Intn(256))
			g.cells[c].scratch.buf = []byte{b}
			twin[i].cells[c].scratch.buf = []byte{b}
		case 10:
			delete(w.byNode, g)
			w.byNode[other()] = -5
			if r.Intn(4) == 0 {
				w.byNode = map[*gnode]int{}
			}
		case 11:
			w.nodes[r.Intn(len(w.nodes))] = other()
			w.rings = append(w.rings, nil)
			w.head = genAny(r, other)
		case 12:
			g.fn, g.ch = func() {}, make(chan int)
		}
	}
}

// identity lists, in a fixed order, every pointer and map object reachable
// from w through the nodes in all.
func identity(w *graphWorld, all []*gnode) []uintptr {
	ref := func(v any) uintptr {
		if rv := reflect.ValueOf(v); rv.Kind() == reflect.Ptr || rv.Kind() == reflect.Map {
			return rv.Pointer()
		}
		return 0
	}
	out := []uintptr{ref(w.byNode), ref(w.head)}
	for p := range w.byNode {
		out = append(out, ref(p))
	}
	slices.Sort(out[2:])
	for _, g := range w.nodes {
		out = append(out, ref(g))
	}
	for _, ring := range w.rings {
		for _, g := range ring {
			out = append(out, ref(g))
		}
	}
	for _, g := range all {
		out = append(out, ref(g.next), ref(g.rec), ref(g.val))
		for _, p := range g.peers {
			out = append(out, ref(p))
		}
		keys := slices.Sorted(maps.Keys(g.rec))
		for _, k := range keys {
			out = append(out, ref(g.rec[k].sub))
		}
		if rec, ok := g.val.(record); ok {
			out = append(out, ref(rec.sub))
		}
	}
	return out
}

// sameWorld compares a restored world with its twin: deeply, with the
// pointer-keyed map compared through node indices.
func sameWorld(t *testing.T, a, b *graphWorld, allA, allB []*gnode) {
	t.Helper()
	byIndex := func(m map[*gnode]int, all []*gnode) map[int]int {
		out := map[int]int{}
		for p, v := range m {
			i := slices.Index(all, p)
			if i < 0 {
				t.Fatalf("byNode keyed by a node that is not the original's")
			}
			out[i] = v
		}
		return out
	}
	if !reflect.DeepEqual(byIndex(a.byNode, allA), byIndex(b.byNode, allB)) {
		t.Fatal("byNode differs from the twin")
	}
	ca, cb := *a, *b
	ca.byNode, cb.byNode = nil, nil
	if !reflect.DeepEqual(ca, cb) {
		t.Fatal("restored world differs from its twin")
	}
	for i := range allA {
		if !reflect.DeepEqual(allA[i], allB[i]) {
			t.Fatalf("node %d differs from its twin", i)
		}
	}
}

// TestCaptureRestoreRandomGraphs pins equivalence rather than outcome: a
// world built by a seeded generator, captured, mutated at random and
// restored, deep-equals an untouched twin and holds exactly its original
// pointers and maps — three times on one image, each branch mutating what
// the previous restore built.
func TestCaptureRestoreRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		a, allA := genWorld(seed)
		b, allB := genWorld(seed)
		sameWorld(t, a, b, allA, allB)
		want := identity(a, allA)
		im := Capture(a)
		r := rand.New(rand.NewSource(-seed))
		for round := 0; round < 3; round++ {
			mutate(r, a, allA, allB)
			im.Restore()
			sameWorld(t, a, b, allA, allB)
			if got := identity(a, allA); !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d: restored world lost pointer or map identity", seed, round)
			}
		}
	}
}

// TestRestoredSlicesOwnTheirArrays: a Restore cuts every slice of one
// element type from one array, each with cap == len, so a branch that
// appends to or writes through any of them — in a field, in a map value,
// below an interface, or two fields that shared an array at capture —
// changes neither its siblings nor the image.
func TestRestoredSlicesOwnTheirArrays(t *testing.T) {
	type pair struct{ s []int }
	type owner struct {
		a, b  []int
		byKey map[string][]int
		box   any // a []int
		boxed any // a pair
		list  [][]int
	}
	shared := []int{1, 2, 3, 4}
	w := &owner{
		a:     shared[:2],
		b:     shared[1:4],
		byKey: map[string][]int{"x": {5, 6}, "y": make([]int, 1, 8)},
		box:   []int{8, 9},
		boxed: pair{s: []int{10, 11, 12}},
	}
	for i := 0; i < 20; i++ {
		w.list = append(w.list, make([]int, i%4, 6))
		for j := range w.list[i] {
			w.list[i][j] = 100*i + j
		}
	}
	type slot struct {
		name string
		get  func() []int
		set  func([]int)
	}
	slots := []slot{
		{"a", func() []int { return w.a }, func(s []int) { w.a = s }},
		{"b", func() []int { return w.b }, func(s []int) { w.b = s }},
		{"byKey[x]", func() []int { return w.byKey["x"] }, func(s []int) { w.byKey["x"] = s }},
		{"byKey[y]", func() []int { return w.byKey["y"] }, func(s []int) { w.byKey["y"] = s }},
		{"box", func() []int { return w.box.([]int) }, func(s []int) { w.box = s }},
		{"boxed", func() []int { return w.boxed.(pair).s }, func(s []int) { w.boxed = pair{s} }},
	}
	for i := range w.list {
		slots = append(slots, slot{fmt.Sprintf("list[%d]", i),
			func() []int { return w.list[i] }, func(s []int) { w.list[i] = s }})
	}
	want := make([][]int, len(slots))
	for i, sl := range slots {
		want[i] = slices.Clone(sl.get())
	}
	im := Capture(w)
	for round := 0; round < 2; round++ {
		im.Restore()
		for i, sl := range slots {
			if s := sl.get(); !slices.Equal(s, want[i]) || s == nil || cap(s) != len(s) {
				t.Fatalf("round %d: restored %s = %v (len %d cap %d), want the captured %v with cap == len",
					round, sl.name, s, len(s), cap(s), want[i])
			}
		}
		for i, sl := range slots {
			s := sl.get()
			for j := range s {
				s[j] = -1
			}
			sl.set(append(s, -2))
			for k, other := range slots {
				if k != i && !slices.Equal(other.get(), want[k]) {
					t.Fatalf("round %d: writing and appending through %s changed %s to %v, want %v",
						round, sl.name, other.name, other.get(), want[k])
				}
			}
			sl.set(slices.Clone(want[i]))
		}
	}
}
