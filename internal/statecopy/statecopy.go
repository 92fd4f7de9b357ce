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
// Representation. Capture takes one shallow copy of every value it keeps —
// each root's and each pointee's memory, each slice's array, each map's
// entries (keys and values in two typed slices) — and walks, through unsafe
// offsets, only the locations inside that copy whose type can hold a
// reference the walk follows. What to walk is computed once per
// reflect.Type. Pointers and maps need nothing beyond the copy that holds
// them: their referents are memoized and captured once, off a worklist.
// Slices need a fix (their elements come back in an array of their own), as
// does an interface whose dynamic value has such a slice below it. Restore
// writes each copy back with one Set, or field by field when something
// below is left untouched, replays the fixes, and clears and refills every
// captured map. An Image may be restored any number of times; Restore
// writes the live objects, so only one may run at a time.
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
//   - Slices are restored into freshly allocated arrays (two fields that
//     shared one backing array before capture come back unaliased; the
//     engine keeps no slice that relies on sharing one, and every branch
//     gets arrays of its own to reuse in place).
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

// Image is an immutable capture of an object graph's mutable state,
// restorable into the original objects any number of times.
type Image struct {
	vals  []value // roots first, then every pointee, in discovery order
	maps  []mapState
	fixes []fix // spans of it belong to values, map entries and other fixes
}

// span is a range of Image.fixes.
type span struct{ lo, hi int }

// value is one captured location: live memory at, and cp, a private copy of
// its bits.
type value struct {
	at, cp unsafe.Pointer
	t      reflect.Type
	plan   *plan
	fixes  span // offsets from the start of the value
}

// mapState is one captured map object and its entries.
type mapState struct {
	m          unsafe.Pointer // the map value's bits
	t          reflect.Type
	keys, vals reflect.Value // []K and []V; invalid for an empty map
	kfix, vfix span          // offsets from the start of keys and vals
}

// fix is a location inside a copy that the copy alone does not restore: a
// slice, or an interface holding a value with a slice below it.
type fix struct {
	off  uintptr
	t    reflect.Type  // the slice or interface type at off
	dyn  reflect.Value // the private slice, or a copy of the dynamic value
	kids span          // fixes inside dyn's array or copy
}

// plan is what the walk needs to know about a type, computed once per type.
type plan struct {
	refs      []leaf // locations holding a pointer, map, slice or interface to follow
	keep      []leaf // when untouched: the locations Restore sets one by one
	untouched bool   // something at or below the type is left untouched
	plain     bool   // holds no references of any kind

	kslice, vslice reflect.Type // a map type's []K and []V
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
	p := &plan{}
	switch t.Kind() {
	case reflect.Ptr:
		if !shared(t) {
			p.refs = []leaf{{0, t}}
		}
	case reflect.Map:
		p.refs = []leaf{{0, t}}
		p.kslice, p.vslice = reflect.SliceOf(t.Key()), reflect.SliceOf(t.Elem())
	case reflect.Slice, reflect.Interface:
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
			return &plan{untouched: true}
		}
	case reflect.Array:
		e := planOf(t.Elem())
		p.plain = e.plain
		if len(e.refs) == 0 && !e.untouched {
			break
		}
		for i := 0; i < t.Len(); i++ {
			p.add(e, uintptr(i)*t.Elem().Size(), t.Elem())
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

// Capture records the state reachable from the given roots. Every root must
// be a non-nil pointer (to a struct, map, slice, or any other value); the
// pointed-to state is what Restore later rewrites.
func Capture(roots ...any) *Image {
	c := &capturer{
		im:   &Image{},
		ptrs: make(map[ptrKey]struct{}),
		maps: make(map[unsafe.Pointer]struct{}),
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
	p unsafe.Pointer
	t reflect.Type
}

type capturer struct {
	im    *Image
	ptrs  map[ptrKey]struct{}
	maps  map[unsafe.Pointer]struct{}
	stack []fix // fixes of the values being walked, innermost last
}

func (c *capturer) pointee(p unsafe.Pointer, t reflect.Type) {
	k := ptrKey{p, t}
	if _, ok := c.ptrs[k]; ok {
		return
	}
	c.ptrs[k] = struct{}{}
	c.im.vals = append(c.im.vals, value{at: p, t: t, plan: planOf(t)})
}

func (c *capturer) mapRef(m unsafe.Pointer, t reflect.Type) {
	if _, ok := c.maps[m]; ok || m == nil {
		return
	}
	c.maps[m] = struct{}{}
	c.im.maps = append(c.im.maps, mapState{m: m, t: t})
}

// value copies and walks vals[i].
func (c *capturer) value(i int) {
	v := c.im.vals[i]
	cp := reflect.New(v.t)
	cp.Elem().Set(reflect.NewAt(v.t, v.at).Elem())
	c.im.vals[i].cp = cp.UnsafePointer()
	c.im.vals[i].fixes = c.walk(cp.UnsafePointer(), v.plan, 0, 1)
}

// mapEntries copies and walks the entries of maps[i].
func (c *capturer) mapEntries(i int) {
	ms := c.im.maps[i]
	m := reflect.NewAt(ms.t, unsafe.Pointer(&c.im.maps[i].m)).Elem()
	n := m.Len()
	if n == 0 {
		return
	}
	p := planOf(ms.t)
	keys, vals := reflect.MakeSlice(p.kslice, n, n), reflect.MakeSlice(p.vslice, n, n)
	var it reflect.MapIter
	it.Reset(m)
	for j := 0; it.Next(); j++ {
		keys.Index(j).SetIterKey(&it)
		vals.Index(j).SetIterValue(&it)
	}
	kt, vt := ms.t.Key(), ms.t.Elem()
	kfix := c.walk(keys.UnsafePointer(), planOf(kt), kt.Size(), n)
	vfix := c.walk(vals.UnsafePointer(), planOf(vt), vt.Size(), n)
	ms.keys, ms.vals, ms.kfix, ms.vfix = keys, vals, kfix, vfix
	c.im.maps[i] = ms
}

// walk follows the references of n values of plan p laid out stride apart
// from base, which is private memory, and returns the fixes they need. The
// fixes of one walk are contiguous: nested walks finish first.
func (c *capturer) walk(base unsafe.Pointer, p *plan, stride uintptr, n int) span {
	mark := len(c.stack)
	for i := 0; i < n && len(p.refs) > 0; i++ {
		for _, l := range p.refs {
			off := uintptr(i)*stride + l.off
			c.ref(unsafe.Add(base, off), off, l.t)
		}
	}
	lo := len(c.im.fixes)
	c.im.fixes = append(c.im.fixes, c.stack[mark:]...)
	c.stack = c.stack[:mark]
	return span{lo, len(c.im.fixes)}
}

// ref follows the reference of type t at, off bytes into the walked memory.
func (c *capturer) ref(at unsafe.Pointer, off uintptr, t reflect.Type) {
	switch t.Kind() {
	case reflect.Ptr:
		if p := *(*unsafe.Pointer)(at); p != nil {
			c.pointee(p, t.Elem())
		}
	case reflect.Map:
		c.mapRef(*(*unsafe.Pointer)(at), t)
	case reflect.Slice:
		s := reflect.NewAt(t, at).Elem()
		if s.IsNil() {
			return
		}
		n := s.Len()
		priv := reflect.MakeSlice(t, n, n)
		reflect.Copy(priv, s)
		s.Set(priv) // the copy holding it now pins the private array, not the live one
		kids := c.walk(priv.UnsafePointer(), planOf(t.Elem()), t.Elem().Size(), n)
		c.stack = append(c.stack, fix{off: off, t: t, dyn: priv, kids: kids})
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
		// The boxed value is immutable; only a slice below it needs a fix.
		tmp := reflect.New(dt)
		tmp.Elem().Set(d)
		if kids := c.walk(tmp.UnsafePointer(), dp, 0, 1); kids.lo < kids.hi {
			c.stack = append(c.stack, fix{off: off, t: t, dyn: tmp.Elem(), kids: kids})
		}
	}
}

// Restore writes the captured state back into the original objects. The
// image itself is not consumed; restoring again later rewinds to the same
// point. Restore must not run concurrently with anything that touches the
// captured objects, another Restore of the same image included.
func (im *Image) Restore() {
	for i := range im.vals {
		v := &im.vals[i]
		if !v.plan.untouched {
			set(v.at, v.cp, leaf{0, v.t})
		}
		for _, l := range v.plan.keep {
			set(v.at, v.cp, l)
		}
		im.apply(v.fixes, v.at, 0)
	}
	for i := range im.maps {
		im.restoreMap(&im.maps[i])
	}
}

func set(dst, src unsafe.Pointer, l leaf) {
	reflect.NewAt(l.t, unsafe.Add(dst, l.off)).Elem().Set(reflect.NewAt(l.t, unsafe.Add(src, l.off)).Elem())
}

// apply replays the fixes of span s onto memory at base that has just been
// set from their copy; delta is subtracted from every offset.
func (im *Image) apply(s span, base unsafe.Pointer, delta uintptr) {
	for _, f := range im.fixes[s.lo:s.hi] {
		var v reflect.Value
		if f.t.Kind() == reflect.Slice {
			v = reflect.MakeSlice(f.t, f.dyn.Len(), f.dyn.Len())
			reflect.Copy(v, f.dyn)
			im.apply(f.kids, v.UnsafePointer(), 0)
		} else {
			p := reflect.New(f.dyn.Type())
			p.Elem().Set(f.dyn)
			im.apply(f.kids, p.UnsafePointer(), 0)
			v = p.Elem()
		}
		reflect.NewAt(f.t, unsafe.Add(base, f.off-delta)).Elem().Set(v)
	}
}

func (im *Image) restoreMap(ms *mapState) {
	m := reflect.NewAt(ms.t, unsafe.Pointer(&ms.m)).Elem()
	m.Clear()
	if !ms.keys.IsValid() {
		return
	}
	kf, vf := ms.kfix, ms.vfix
	var kt, vt reflect.Value
	for i := 0; i < ms.keys.Len(); i++ {
		m.SetMapIndex(im.entry(ms.keys, i, &kf, &kt), im.entry(ms.vals, i, &vf, &vt))
	}
}

// entry returns element i of a captured key or value array: the captured
// bits themselves, or, when the next fixes in s fall inside them, a copy at
// *tmp with those fixes replayed.
func (im *Image) entry(arr reflect.Value, i int, s *span, tmp *reflect.Value) reflect.Value {
	e := arr.Index(i)
	size := e.Type().Size()
	lo := s.lo
	for s.lo < s.hi && im.fixes[s.lo].off < uintptr(i+1)*size {
		s.lo++
	}
	if lo == s.lo {
		return e
	}
	if !tmp.IsValid() {
		*tmp = reflect.New(e.Type())
	}
	tmp.Elem().Set(e)
	im.apply(span{lo, s.lo}, tmp.UnsafePointer(), uintptr(i)*size)
	return tmp.Elem()
}
