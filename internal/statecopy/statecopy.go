// Package statecopy captures and restores the mutable state of an object
// graph in place. It is the foundation of the emulator's checkpoint/fork
// facility (docs/sweeps.md): a scenario sweep runs the expensive settled
// prefix once, captures the world, executes one variant branch, and then
// rewinds to the capture before executing the next.
//
// The central design constraint is that the scheduler's pending events hold
// closures, and those closures capture pointers to live objects — nodes,
// protocol agents, transport connections. A checkpoint therefore cannot
// clone the world into new objects (the queued closures would keep pointing
// at the old ones); it must instead record the state of the existing
// objects and later write that state back into the very same memory, so
// that every pointer captured anywhere stays valid.
//
// Representation. Capture copies every value it keeps — each root's and
// each pointee's memory, each slice's elements, each map's keys and values,
// each boxed interface value with a slice below it — into arenas: arrays of
// one element type, made with reflect.MakeSlice so the collector scans the
// copies, and grown by doubling. It then walks, through unsafe offsets, only
// the locations inside the copies whose type can hold a reference the walk
// follows; what to walk is computed once per reflect.Type. Pointers and maps
// need nothing beyond the copy that holds them: their referents are
// memoized and captured once, off a worklist. A slice needs a fix (its
// elements come back in an array of their own), as does an interface whose
// boxed value has such a slice below it, and the image counts how many
// elements of each type its fixes need. Restore makes one array per type,
// writes each copy back with one Set, or field by field when something below
// is left untouched, replays the fixes by cutting each slice or box from its
// type's array, and clears and refills every captured map. An Image may be
// restored any number of times; Restore writes the live objects, so only
// one may run at a time.
//
// Walk semantics, by kind:
//
//   - Plain data (booleans, numbers, strings, and arrays/structs of them)
//     is copied by value.
//   - Pointers are memoized by (address, type): the pointee's state is
//     captured once, and restore writes it back through the original
//     pointer, so aliased pointers stay aliased and pointer identity is
//     preserved across the rewind.
//   - Maps are memoized by identity and restored by clearing and refilling
//     the original map object — code that replaced the map wholesale in a
//     branch gets the original object back.
//   - Slices are restored into fresh arrays, each cut with cap == len from
//     the one array a Restore makes for its element type: an append in a
//     branch reallocates instead of running into a neighbour. Two fields
//     that shared one backing array before capture come back unaliased; the
//     engine keeps no slice that relies on sharing one, and every branch
//     gets arrays of its own to reuse in place.
//   - Funcs, channels, and unsafe pointers are shared: the reference is
//     restored but the referent is not walked. For channels this is what a
//     quiescent checkpoint needs — the engine only checkpoints at event-loop
//     barriers, where every semaphore channel is back in its idle state.
//   - sync.* values that hold references (sync.Map, atomic.Pointer) are left
//     completely untouched; reference-free ones (mutexes, once, waitgroups)
//     are copied, and at a barrier they are unlocked.
//   - time.Time is copied shallowly (sharing the immutable *Location).
//   - A pointer whose type implements Opaque is shared without being
//     walked. Infrastructure that snapshots itself separately (the
//     scheduler, the network, endpoints, timers) and immutable registries
//     (protocol definitions, tracers) opt out this way, which is also what
//     stops the walk at package boundaries.
//
// Untouched values keep their current state wherever they sit in memory
// Restore writes to: in a struct field, in an array element, in a struct
// reached through an array. A slice, map entry or interface value is
// rebuilt in new memory, so an untouched value held there comes back as
// the captured bits.
package statecopy

import (
	"fmt"
	"reflect"
	"sync"
	"time"
	"unsafe"
)

// Opaque marks a type whose pointers are shared, not walked, by Capture.
// Implementations either have no mutable state, or snapshot their state
// through their own mechanism at the same barrier (the event scheduler, the
// emulated network). A struct whose pointer receiver declares it and that
// holds references is left untouched even when embedded by value (e.g. a
// per-shard pool inside an array): its state is scratch, never part of a
// checkpoint.
type Opaque interface{ StateCopyOpaque() }

var (
	opaqueType = reflect.TypeOf((*Opaque)(nil)).Elem()
	timeType   = reflect.TypeOf(time.Time{})
)

// Image is a capture of an object graph's mutable state, restorable into
// the original objects any number of times. A Restore changes nothing in it
// but its runs' cursors.
type Image struct {
	vals  []value // roots first, then every pointee, in discovery order
	maps  []mapState
	fixes []fix // spans of it belong to values, map entries and other fixes
	runs  []run // one per type
}

// span is a range of Image.fixes.
type span struct{ lo, hi int32 }

// value is one captured location: live memory at, and cp, a private copy of
// its bits in an arena.
type value struct {
	at, cp unsafe.Pointer
	plan   *plan
	fixes  span // inside cp
}

// mapState is one captured map object and its n entries.
type mapState struct {
	m          unsafe.Pointer // the map value's bits
	plan       *plan
	keys, vals unsafe.Pointer // n keys and n values, in arenas
	n          int32
	ktmp, vtmp int32 // the run an entry with fixes is rebuilt in, if any
	kfix, vfix span  // inside keys and vals
}

// fix is a location in image memory that its copy alone does not restore: a
// slice, whose elements Restore copies into an array of their own, or an
// interface whose boxed value has such a slice below it, which Restore
// boxes anew. Either way only the data word changes.
type fix struct {
	src   unsafe.Pointer // the slice or interface
	kids  span           // fixes inside its elements or box
	run   int32          // the run its elements or box are cut from
	iface bool
}

// run is one type's array in use: while Capture runs, the arena its values
// are copied into, replaced by one twice the size when full; while a
// Restore runs, the array of the n elements its fixes cut, in order.
type run struct {
	plan      *plan
	n         int
	at        unsafe.Pointer
	used, cap int
}

// sliceHeader is the layout of every slice value.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// emptyRun is the array of every non-nil empty slice an image holds or a
// Restore builds.
var emptyRun uintptr

// plan is what the walk needs to know about a type, computed once per type.
type plan struct {
	t, slice  reflect.Type // the type and a slice of it
	size      uintptr
	refs      []leaf // locations holding a pointer, map, slice or interface to follow
	keep      []leaf // when untouched: the locations Restore sets one by one
	untouched bool   // something at or below the type is left untouched
	plain     bool   // holds no references of any kind
}

type leaf struct {
	off uintptr
	t   reflect.Type
}

var plans sync.Map // reflect.Type -> *plan

func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p, _ := plans.LoadOrStore(t, newPlan(t))
	return p.(*plan)
}

// newPlan builds t's plan. Only struct and array plans consult other plans,
// and a type can only recurse through a reference, so this terminates.
func newPlan(t reflect.Type) *plan {
	p := &plan{t: t, slice: reflect.SliceOf(t), size: t.Size()}
	switch t.Kind() {
	case reflect.Ptr:
		if !shared(t) {
			p.refs = []leaf{{0, t}}
		}
	case reflect.Map, reflect.Slice, reflect.Interface:
		p.refs = []leaf{{0, t}}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
	case reflect.Struct:
		p.plain = true
		if t == timeType {
			break // shallow copy; *Location is immutable and shared
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			p.add(planOf(f.Type), f.Offset, f.Type)
		}
		if !p.plain && (isSyncType(t) || reflect.PointerTo(t).Implements(opaqueType)) {
			return &plan{t: t, slice: p.slice, size: p.size, untouched: true}
		}
	case reflect.Array:
		e := planOf(t.Elem())
		p.plain = e.plain
		if len(e.refs) == 0 && !e.untouched {
			break
		}
		for i := 0; i < t.Len(); i++ {
			p.add(e, uintptr(i)*e.size, t.Elem())
		}
	default:
		p.plain = true
	}
	if !p.untouched {
		p.keep = nil
	}
	return p
}

// add folds the plan of a field or element of type t at off into p.
func (p *plan) add(sub *plan, off uintptr, t reflect.Type) {
	p.plain = p.plain && sub.plain
	for _, l := range sub.refs {
		p.refs = append(p.refs, leaf{off + l.off, l.t})
	}
	if !sub.untouched {
		p.keep = append(p.keep, leaf{off, t})
		return
	}
	p.untouched = true
	for _, l := range sub.keep {
		p.keep = append(p.keep, leaf{off + l.off, l.t})
	}
}

// shared reports whether a pointer is kept without walking its referent.
func shared(t reflect.Type) bool { return t.Implements(opaqueType) || isSyncType(t.Elem()) }

func isSyncType(t reflect.Type) bool {
	pkg := t.PkgPath()
	return pkg == "sync" || pkg == "sync/atomic"
}

// copyVal copies a value of type t from src to dst with the write barriers
// its pointers need.
func copyVal(t reflect.Type, dst, src unsafe.Pointer) {
	reflect.NewAt(t, dst).Elem().Set(reflect.NewAt(t, src).Elem())
}

// Capture records the state reachable from the given roots. Every root must
// be a non-nil pointer (to a struct, map, slice, or any other value); the
// pointed-to state is what Restore later rewrites.
func Capture(roots ...any) *Image {
	c := &capturer{
		im:    &Image{},
		ptrs:  make(map[ptrKey]struct{}),
		maps:  make(map[unsafe.Pointer]struct{}),
		types: make(map[*plan]int32),
	}
	for _, r := range roots {
		v := reflect.ValueOf(r)
		if v.Kind() != reflect.Ptr || v.IsNil() {
			panic(fmt.Sprintf("statecopy: root must be a non-nil pointer, got %T", r))
		}
		c.pointee(v.UnsafePointer(), v.Type().Elem())
	}
	// Pointees and maps are captured off a worklist, so a long pointer
	// chain costs no stack.
	for nv, nm := 0, 0; nv < len(c.im.vals) || nm < len(c.im.maps); {
		if nv < len(c.im.vals) {
			c.value(nv)
			nv++
		} else {
			c.mapEntries(nm)
			nm++
		}
	}
	return c.im
}

type ptrKey struct {
	p    unsafe.Pointer
	plan *plan
}

type capturer struct {
	im    *Image
	ptrs  map[ptrKey]struct{}
	maps  map[unsafe.Pointer]struct{}
	types map[*plan]int32 // index into Image.runs
	stack []fix           // fixes of the values being walked, innermost last
	live  sliceHeader     // the live slice whose elements are being copied
}

// minArena is the elements of a type's first arena. A run of more than
// ownRun bytes gets an array of its own instead: an arena never doubles to
// make room for one.
const (
	minArena = 4
	ownRun   = 4 << 10
)

// index returns the index of p's run.
func (c *capturer) index(p *plan) int32 {
	i, ok := c.types[p]
	if !ok {
		i = int32(len(c.im.runs))
		c.types[p] = i
		c.im.runs = append(c.im.runs, run{plan: p})
	}
	return i
}

// alloc returns n consecutive elements of p's type in p's arena.
func (c *capturer) alloc(p *plan, n int) unsafe.Pointer {
	if uintptr(n)*p.size > ownRun {
		return reflect.MakeSlice(p.slice, n, n).UnsafePointer()
	}
	i := c.index(p)
	if r := &c.im.runs[i]; r.cap-r.used < n {
		size := max(2*r.cap, minArena)
		for size < n {
			size *= 2
		}
		r.at, r.used, r.cap = reflect.MakeSlice(p.slice, size, size).UnsafePointer(), 0, size
	}
	return c.im.cut(i, n)
}

// need adds n elements of p's type to what one Restore cuts, and returns
// the run they are cut from.
func (c *capturer) need(p *plan, n int) int32 {
	i := c.index(p)
	c.im.runs[i].n += n
	return i
}

func (c *capturer) pointee(p unsafe.Pointer, t reflect.Type) {
	k := ptrKey{p, planOf(t)}
	if _, ok := c.ptrs[k]; ok {
		return
	}
	c.ptrs[k] = struct{}{}
	c.im.vals = append(c.im.vals, value{at: p, plan: k.plan})
}

func (c *capturer) mapRef(m unsafe.Pointer, t reflect.Type) {
	if _, ok := c.maps[m]; ok || m == nil {
		return
	}
	c.maps[m] = struct{}{}
	c.im.maps = append(c.im.maps, mapState{m: m, plan: planOf(t), ktmp: -1, vtmp: -1})
}

// value copies and walks vals[i].
func (c *capturer) value(i int) {
	p := c.im.vals[i].plan
	cp := c.alloc(p, 1)
	copyVal(p.t, cp, c.im.vals[i].at)
	c.im.vals[i].cp = cp
	fixes := c.walk(cp, p, 1)
	c.im.vals[i].fixes = fixes
}

// mapEntries copies and walks the entries of maps[i].
func (c *capturer) mapEntries(i int) {
	t := c.im.maps[i].plan.t
	m := reflect.NewAt(t, unsafe.Pointer(&c.im.maps[i].m)).Elem()
	n := m.Len()
	if n == 0 {
		return
	}
	kp, vp := planOf(t.Key()), planOf(t.Elem())
	keys, vals := c.alloc(kp, n), c.alloc(vp, n)
	var it reflect.MapIter
	it.Reset(m)
	for j := uintptr(0); it.Next(); j++ {
		reflect.NewAt(kp.t, unsafe.Add(keys, j*kp.size)).Elem().SetIterKey(&it)
		reflect.NewAt(vp.t, unsafe.Add(vals, j*vp.size)).Elem().SetIterValue(&it)
	}
	kfix, vfix := c.walk(keys, kp, n), c.walk(vals, vp, n)
	ms := &c.im.maps[i]
	ms.keys, ms.vals, ms.n, ms.kfix, ms.vfix = keys, vals, int32(n), kfix, vfix
	if kfix.lo < kfix.hi {
		ms.ktmp = c.need(kp, 1)
	}
	if vfix.lo < vfix.hi {
		ms.vtmp = c.need(vp, 1)
	}
}

// walk follows the references of n consecutive values of plan p at base,
// which is image memory, and returns the fixes they need. The fixes of one
// walk are contiguous and in address order: nested walks finish first.
func (c *capturer) walk(base unsafe.Pointer, p *plan, n int) span {
	mark := len(c.stack)
	for i := 0; i < n && len(p.refs) > 0; i++ {
		for _, l := range p.refs {
			c.ref(unsafe.Add(base, uintptr(i)*p.size+l.off), l.t)
		}
	}
	lo := len(c.im.fixes)
	c.im.fixes = append(c.im.fixes, c.stack[mark:]...)
	c.stack = c.stack[:mark]
	return span{int32(lo), int32(len(c.im.fixes))}
}

// ref follows the reference of type t at, in image memory.
func (c *capturer) ref(at unsafe.Pointer, t reflect.Type) {
	switch t.Kind() {
	case reflect.Ptr:
		if p := *(*unsafe.Pointer)(at); p != nil {
			c.pointee(p, t.Elem())
		}
	case reflect.Map:
		c.mapRef(*(*unsafe.Pointer)(at), t)
	case reflect.Slice:
		h := (*sliceHeader)(at)
		if h.data == nil {
			return
		}
		ep := planOf(t.Elem())
		c.live = *h
		h.data, h.cap = c.alloc(ep, h.len), h.len
		reflect.Copy(reflect.NewAt(ep.slice, at).Elem(), reflect.NewAt(ep.slice, unsafe.Pointer(&c.live)).Elem())
		c.live = sliceHeader{}
		kids := c.walk(h.data, ep, h.len)
		c.stack = append(c.stack, fix{src: at, kids: kids, run: c.need(ep, h.len)})
	case reflect.Interface:
		v := reflect.NewAt(t, at).Elem()
		if v.IsNil() {
			return
		}
		d := v.Elem()
		dt := d.Type()
		switch dt.Kind() {
		case reflect.Ptr:
			if p := d.UnsafePointer(); p != nil && !shared(dt) {
				c.pointee(p, dt.Elem())
			}
			return
		case reflect.Map:
			c.mapRef(d.UnsafePointer(), dt)
			return
		}
		dp := planOf(dt)
		if len(dp.refs) == 0 {
			return
		}
		// The boxed value is immutable; only a slice below it needs a fix,
		// and then the interface holds the copy. A value with a slice below
		// it is never stored in the interface's data word itself.
		box := c.alloc(dp, 1)
		reflect.NewAt(dt, box).Elem().Set(d)
		if kids := c.walk(box, dp, 1); kids.lo < kids.hi {
			(*[2]unsafe.Pointer)(at)[1] = box
			c.stack = append(c.stack, fix{src: at, kids: kids, run: c.need(dp, 1), iface: true})
		}
	}
}

// Restore writes the captured state back into the original objects. The
// image itself is not consumed; restoring again later rewinds to the same
// point. Restore must not run concurrently with anything that touches the
// captured objects, another Restore of the same image included.
func (im *Image) Restore() {
	for i := range im.runs {
		if r := &im.runs[i]; r.n > 0 {
			r.at, r.used, r.cap = reflect.MakeSlice(r.plan.slice, r.n, r.n).UnsafePointer(), 0, r.n
		}
	}
	for i := range im.vals {
		v := &im.vals[i]
		if !v.plan.untouched {
			copyVal(v.plan.t, v.at, v.cp)
		}
		for _, l := range v.plan.keep {
			copyVal(l.t, unsafe.Add(v.at, l.off), unsafe.Add(v.cp, l.off))
		}
		im.apply(v.fixes, v.at, v.cp)
	}
	for i := range im.maps {
		im.restoreMap(&im.maps[i])
	}
	for i := range im.runs {
		im.runs[i].at = nil
	}
}

// cut returns the next n elements of run r's array, which has room.
func (im *Image) cut(r int32, n int) unsafe.Pointer {
	if n == 0 {
		return unsafe.Pointer(&emptyRun)
	}
	ru := &im.runs[r]
	at := unsafe.Add(ru.at, uintptr(ru.used)*ru.plan.size)
	ru.used += n
	return at
}

// apply replays the fixes of span s onto dst, memory that has just been set
// from the image memory at src.
func (im *Image) apply(s span, dst, src unsafe.Pointer) {
	for _, f := range im.fixes[s.lo:s.hi] {
		at := unsafe.Add(dst, uintptr(f.src)-uintptr(src))
		p := im.runs[f.run].plan
		if f.iface {
			box := (*[2]unsafe.Pointer)(f.src)[1]
			fresh := im.cut(f.run, 1)
			copyVal(p.t, fresh, box)
			im.apply(f.kids, fresh, box)
			(*[2]unsafe.Pointer)(at)[1] = fresh
			continue
		}
		h := (*sliceHeader)(f.src)
		fresh := im.cut(f.run, h.len)
		(*sliceHeader)(at).data = fresh
		reflect.Copy(reflect.NewAt(p.slice, at).Elem(), reflect.NewAt(p.slice, f.src).Elem())
		im.apply(f.kids, fresh, h.data)
	}
}

func (im *Image) restoreMap(ms *mapState) {
	m := reflect.NewAt(ms.plan.t, unsafe.Pointer(&ms.m)).Elem()
	m.Clear()
	kf, vf := ms.kfix, ms.vfix
	var kt, vt unsafe.Pointer
	for i := 0; i < int(ms.n); i++ {
		m.SetMapIndex(im.entry(ms.keys, i, &kf, ms.ktmp, &kt, ms.plan.t.Key()),
			im.entry(ms.vals, i, &vf, ms.vtmp, &vt, ms.plan.t.Elem()))
	}
}

// entry returns element i of a captured key or value array of type t: the
// captured bits themselves, or, when the next fixes in s fall inside them, a
// copy at *tmp, cut from run r, with those fixes replayed.
func (im *Image) entry(arr unsafe.Pointer, i int, s *span, r int32, tmp *unsafe.Pointer, t reflect.Type) reflect.Value {
	e := unsafe.Add(arr, uintptr(i)*t.Size())
	end := uintptr(e) + t.Size()
	lo := s.lo
	for s.lo < s.hi && uintptr(im.fixes[s.lo].src) < end {
		s.lo++
	}
	if lo == s.lo {
		return reflect.NewAt(t, e).Elem()
	}
	if *tmp == nil {
		*tmp = im.cut(r, 1)
	}
	copyVal(t, *tmp, e)
	im.apply(span{lo, s.lo}, *tmp, e)
	return reflect.NewAt(t, *tmp).Elem()
}
