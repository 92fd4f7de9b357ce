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
// that every pointer captured anywhere stays valid. Capture walks the graph
// through reflection (unexported fields included, via unsafe), deep-copying
// values while memoizing pointers and maps by identity; Restore replays the
// copies into the original locations. An Image is immutable and may be
// restored any number of times.
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
//     engine's state holds only read-only views of immutable datagrams,
//     which coming back unaliased cannot affect).
//   - Funcs, channels, and unsafe pointers are shared: the reference is
//     restored but the referent is not walked. For channels this is what a
//     quiescent checkpoint needs — the engine only checkpoints at event-loop
//     barriers, where every semaphore channel is back in its idle state.
//   - sync.* values (mutexes, once, waitgroups) are left completely
//     untouched: at a barrier they are unlocked, and overwriting them could
//     only do harm.
//   - time.Time is copied shallowly (sharing the immutable *Location).
//   - A pointer whose type implements Opaque is shared without being
//     walked. Infrastructure that snapshots itself separately (the
//     scheduler, the network, endpoints, timers) and immutable registries
//     (protocol definitions, tracers) opt out this way, which is also what
//     stops the walk at package boundaries.
package statecopy

import (
	"fmt"
	"reflect"
	"time"
	"unsafe"
)

// Opaque marks a type whose pointers are shared, not walked, by Capture.
// Implementations either have no mutable state, or snapshot their state
// through their own mechanism at the same barrier (the event scheduler, the
// emulated network).
type Opaque interface{ StateCopyOpaque() }

var (
	opaqueType = reflect.TypeOf((*Opaque)(nil)).Elem()
	timeType   = reflect.TypeOf(time.Time{})
)

// Image is an immutable capture of an object graph's mutable state,
// restorable into the original objects any number of times.
type Image struct {
	roots []rootEntry
	ptrs  []*ptrEntry
	maps  []*mapEntry
}

type rootEntry struct {
	target reflect.Value // pointer to the root location
	state  saved
}

// ptrEntry memoizes one captured pointee.
type ptrEntry struct {
	orig  reflect.Value // the pointer, as captured
	state saved         // pointee state
}

// mapEntry memoizes one captured map.
type mapEntry struct {
	orig       reflect.Value // the map reference, as captured
	keys, vals []saved
}

// saved is one node of the captured representation.
type saved interface{}

type (
	savBits    struct{ v reflect.Value } // addressable private copy; contains no references
	savShare   struct{ v reflect.Value } // reference restored as-is, referent not walked
	savNothing struct{}                  // left untouched on restore (sync.*)
	savPtr     struct{ e *ptrEntry }
	savMap     struct{ e *mapEntry }
	savSlice   struct {
		t     reflect.Type
		elems []saved
	}
	savBitsSlice struct{ v reflect.Value } // private copy of a reference-free slice
	savStruct    struct {
		t      reflect.Type
		fields []saved
	}
	savArray struct {
		t     reflect.Type
		elems []saved
	}
	savIface struct {
		t    reflect.Type // the interface type
		dynT reflect.Type // dynamic type, nil for a nil interface
		val  saved
	}
)

// Capture records the state reachable from the given roots. Every root must
// be a non-nil pointer (to a struct, map, slice, or any other value); the
// pointed-to state is what Restore later rewrites.
func Capture(roots ...any) *Image {
	c := &capturer{
		ptrs:  make(map[ptrKey]*ptrEntry),
		maps:  make(map[unsafe.Pointer]*mapEntry),
		plain: make(map[reflect.Type]bool),
	}
	im := &Image{}
	for _, r := range roots {
		v := reflect.ValueOf(r)
		if v.Kind() != reflect.Ptr || v.IsNil() {
			panic(fmt.Sprintf("statecopy: root must be a non-nil pointer, got %T", r))
		}
		im.roots = append(im.roots, rootEntry{target: v, state: c.capture(v.Elem())})
	}
	for _, e := range c.ptrs {
		im.ptrs = append(im.ptrs, e)
	}
	for _, e := range c.maps {
		im.maps = append(im.maps, e)
	}
	return im
}

// Restore writes the captured state back into the original objects. The
// image itself is not consumed; restoring again later rewinds to the same
// point.
func (im *Image) Restore() {
	r := &restorer{
		ptrDone: make(map[*ptrEntry]bool, len(im.ptrs)),
		mapDone: make(map[*mapEntry]bool, len(im.maps)),
	}
	for _, root := range im.roots {
		r.restore(root.target.Elem(), root.state)
	}
	// Pointees reachable only through shared references (e.g. a pointer held
	// exclusively by a closure) still need their state back.
	for _, e := range im.ptrs {
		r.restorePtr(e)
	}
	for _, e := range im.maps {
		r.restoreMap(e)
	}
}

type ptrKey struct {
	p unsafe.Pointer
	t reflect.Type
}

type capturer struct {
	ptrs  map[ptrKey]*ptrEntry
	maps  map[unsafe.Pointer]*mapEntry
	plain map[reflect.Type]bool
}

// isPlain reports whether t contains no references anywhere: such values are
// captured by plain copy.
func (c *capturer) isPlain(t reflect.Type) bool {
	if done, ok := c.plain[t]; ok {
		return done
	}
	// Guard against recursive types: a struct can only recurse through a
	// reference kind, which makes it non-plain anyway, so seeding false is
	// always consistent.
	c.plain[t] = false
	plain := false
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128, reflect.String:
		plain = true
	case reflect.Array:
		plain = c.isPlain(t.Elem())
	case reflect.Struct:
		if t == timeType {
			plain = true // shallow copy; *Location is immutable and shared
			break
		}
		plain = true
		for i := 0; i < t.NumField(); i++ {
			if !c.isPlain(t.Field(i).Type) {
				plain = false
				break
			}
		}
	}
	c.plain[t] = plain
	return plain
}

// copyToTemp returns a freshly allocated, addressable copy of v.
func copyToTemp(v reflect.Value) reflect.Value {
	n := reflect.New(v.Type()).Elem()
	n.Set(v)
	return n
}

// fieldView returns a readable, settable view of struct field i, unexported
// fields included. v must be addressable.
func fieldView(v reflect.Value, i int) reflect.Value {
	f := v.Field(i)
	if f.CanSet() {
		return f
	}
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

func isSyncType(t reflect.Type) bool {
	pkg := t.PkgPath()
	return pkg == "sync" || pkg == "sync/atomic"
}

// capture records v's state. v must be readable without restriction (the
// walker only ever passes values laundered through fieldView or copyToTemp).
func (c *capturer) capture(v reflect.Value) saved {
	t := v.Type()
	if c.isPlain(t) {
		return savBits{v: copyToTemp(v)}
	}
	switch t.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			return savShare{v: copyToTemp(v)}
		}
		if t.Implements(opaqueType) {
			return savShare{v: copyToTemp(v)}
		}
		if isSyncType(t.Elem()) {
			return savShare{v: copyToTemp(v)}
		}
		key := ptrKey{p: unsafe.Pointer(v.Pointer()), t: t.Elem()}
		if e, ok := c.ptrs[key]; ok {
			return savPtr{e: e}
		}
		e := &ptrEntry{orig: copyToTemp(v)}
		c.ptrs[key] = e // memoize before walking: cycles resolve to e
		e.state = c.capture(v.Elem())
		return savPtr{e: e}
	case reflect.Map:
		if v.IsNil() {
			return savShare{v: copyToTemp(v)}
		}
		key := unsafe.Pointer(v.Pointer())
		if e, ok := c.maps[key]; ok {
			return savMap{e: e}
		}
		e := &mapEntry{orig: copyToTemp(v)}
		c.maps[key] = e
		iter := v.MapRange()
		for iter.Next() {
			e.keys = append(e.keys, c.capture(copyToTemp(iter.Key())))
			e.vals = append(e.vals, c.capture(copyToTemp(iter.Value())))
		}
		return savMap{e: e}
	case reflect.Slice:
		if v.IsNil() {
			return savShare{v: copyToTemp(v)}
		}
		if c.isPlain(t.Elem()) {
			n := reflect.MakeSlice(t, v.Len(), v.Len())
			reflect.Copy(n, v)
			return savBitsSlice{v: n}
		}
		s := savSlice{t: t, elems: make([]saved, v.Len())}
		for i := 0; i < v.Len(); i++ {
			s.elems[i] = c.capture(v.Index(i))
		}
		return s
	case reflect.Array:
		s := savArray{t: t, elems: make([]saved, v.Len())}
		for i := 0; i < v.Len(); i++ {
			s.elems[i] = c.capture(c.addressableElem(v, i))
		}
		return s
	case reflect.Struct:
		if isSyncType(t) {
			return savNothing{}
		}
		// A struct whose pointer receiver declares StateCopyOpaque opts out
		// even when embedded by value (e.g. a per-shard pool inside an
		// array): its state is scratch, never part of a checkpoint.
		if reflect.PointerTo(t).Implements(opaqueType) {
			return savNothing{}
		}
		av := v
		if !av.CanAddr() {
			av = copyToTemp(v)
		}
		s := savStruct{t: t, fields: make([]saved, t.NumField())}
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).Type.Size() == 0 {
				s.fields[i] = savNothing{}
				continue
			}
			s.fields[i] = c.capture(fieldView(av, i))
		}
		return s
	case reflect.Interface:
		if v.IsNil() {
			return savIface{t: t}
		}
		dyn := v.Elem()
		return savIface{t: t, dynT: dyn.Type(), val: c.capture(copyToTemp(dyn))}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return savShare{v: copyToTemp(v)}
	}
	// Remaining kinds are plain and handled above; be safe for anything new.
	return savBits{v: copyToTemp(v)}
}

// addressableElem returns an addressable view of array element i.
func (c *capturer) addressableElem(v reflect.Value, i int) reflect.Value {
	if v.CanAddr() {
		e := v.Index(i)
		if e.CanSet() {
			return e
		}
		return reflect.NewAt(e.Type(), unsafe.Pointer(e.UnsafeAddr())).Elem()
	}
	return copyToTemp(v.Index(i))
}

type restorer struct {
	ptrDone map[*ptrEntry]bool
	mapDone map[*mapEntry]bool
}

// restore writes state s into destination dst. dst must be settable (the
// walker launders unexported fields through fieldView).
func (r *restorer) restore(dst reflect.Value, s saved) {
	switch s := s.(type) {
	case savBits:
		dst.Set(s.v)
	case savShare:
		dst.Set(s.v)
	case savNothing:
	case savPtr:
		r.restorePtr(s.e)
		dst.Set(s.e.orig)
	case savMap:
		r.restoreMap(s.e)
		dst.Set(s.e.orig)
	case savBitsSlice:
		n := reflect.MakeSlice(s.v.Type(), s.v.Len(), s.v.Len())
		reflect.Copy(n, s.v)
		dst.Set(n)
	case savSlice:
		n := reflect.MakeSlice(s.t, len(s.elems), len(s.elems))
		for i, es := range s.elems {
			r.restore(n.Index(i), es)
		}
		dst.Set(n)
	case savArray:
		n := reflect.New(s.t).Elem()
		for i, es := range s.elems {
			r.restore(n.Index(i), es)
		}
		dst.Set(n)
	case savStruct:
		if dst.Type() != s.t {
			panic(fmt.Sprintf("statecopy: restore type mismatch: %v vs %v", dst.Type(), s.t))
		}
		for i, fs := range s.fields {
			if _, skip := fs.(savNothing); skip {
				continue
			}
			r.restore(fieldView(dst, i), fs)
		}
	case savIface:
		if s.dynT == nil {
			dst.Set(reflect.Zero(s.t))
			return
		}
		tmp := reflect.New(s.dynT).Elem()
		r.restore(tmp, s.val)
		dst.Set(tmp)
	default:
		panic(fmt.Sprintf("statecopy: unknown saved node %T", s))
	}
}

func (r *restorer) restorePtr(e *ptrEntry) {
	if r.ptrDone[e] {
		return
	}
	r.ptrDone[e] = true
	r.restore(e.orig.Elem(), e.state)
}

func (r *restorer) restoreMap(e *mapEntry) {
	if r.mapDone[e] {
		return
	}
	r.mapDone[e] = true
	m := e.orig
	for _, k := range m.MapKeys() {
		m.SetMapIndex(k, reflect.Value{})
	}
	for i := range e.keys {
		k := reflect.New(m.Type().Key()).Elem()
		r.restore(k, e.keys[i])
		v := reflect.New(m.Type().Elem()).Elem()
		r.restore(v, e.vals[i])
		m.SetMapIndex(k, v)
	}
}
