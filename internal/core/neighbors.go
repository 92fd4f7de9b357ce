package core

import (
	"math/rand"
	"slices"

	"macedon/internal/overlay"
)

// Neighbor is one entry in a neighbor list: the peer's address plus the
// per-neighbor fields the grammar lets specifications attach (delay and
// bandwidth estimates being the common ones, as in the Overcast example of
// §3.3.2; Value carries any protocol-specific struct).
type Neighbor struct {
	Addr      overlay.Address
	Key       overlay.Key
	Delay     float64 // round-trip estimate in milliseconds
	Bandwidth float64 // estimate in bits per second
	Value     any
}

// NeighborList is the engine's neighbor-management library (§3.3.2): an
// ordered set of neighbors with optional capacity. All the MACEDON
// primitives are here: Add (neighbor_add), Remove, Clear (neighbor_clear),
// Size (neighbor_size), Contains (neighbor_query), Entry (neighbor_entry),
// Random (neighbor_random).
type NeighborList struct {
	name       string
	max        int
	failDetect bool
	entries    []*Neighbor
	index      map[overlay.Address]*Neighbor
	// addrs caches Addrs' answer until the next mutation, which drops it
	// and never writes into it: a slice handed out earlier keeps the
	// membership it was taken at.
	addrs []overlay.Address
}

func newNeighborList(d neighborDecl) *NeighborList {
	return &NeighborList{
		name:       d.name,
		max:        d.max,
		failDetect: d.failDetect,
		index:      make(map[overlay.Address]*Neighbor),
	}
}

// Name returns the list's declared name.
func (l *NeighborList) Name() string { return l.name }

// Max returns the declared capacity (0 = unbounded).
func (l *NeighborList) Max() int { return l.max }

// FailDetect reports whether the engine monitors this list's members.
func (l *NeighborList) FailDetect() bool { return l.failDetect }

// Size returns the number of neighbors.
func (l *NeighborList) Size() int { return len(l.entries) }

// Full reports whether the list is at capacity.
func (l *NeighborList) Full() bool { return l.max > 0 && len(l.entries) >= l.max }

// Add inserts addr and returns its entry. If addr is already present the
// existing entry is returned; if the list is full, nil.
func (l *NeighborList) Add(addr overlay.Address) *Neighbor {
	if n, ok := l.index[addr]; ok {
		return n
	}
	if l.Full() {
		return nil
	}
	n := &Neighbor{Addr: addr, Key: overlay.HashAddress(addr)}
	l.entries = append(l.entries, n)
	l.index[addr] = n
	l.addrs = nil
	return n
}

// Remove deletes addr, reporting whether it was present.
func (l *NeighborList) Remove(addr overlay.Address) bool {
	n, ok := l.index[addr]
	if !ok {
		return false
	}
	delete(l.index, addr)
	l.addrs = nil
	for i, e := range l.entries {
		if e == n {
			l.entries = slices.Delete(l.entries, i, i+1) // clears the vacated tail slot
			break
		}
	}
	return true
}

// Clear empties the list.
func (l *NeighborList) Clear() {
	clear(l.entries) // drop the pointers the retained storage still holds
	l.entries = l.entries[:0]
	clear(l.index)
	l.addrs = nil
}

// Assign replaces the membership with addrs, in order, skipping NilAddress,
// self and repeats, up to the declared capacity (neighbor_sync). The list is
// left exactly as Clear followed by Add of each remaining address leaves it —
// same order, every entry's Key recomputed, its Delay, Bandwidth and Value
// zero — but the entry records are reused position by position, so a sync
// that does not grow the list allocates nothing, and one that repeats the
// current sequence does not touch the index either. The price: a *Neighbor
// obtained before Assign must not be used after it (it may by then describe
// another peer).
func (l *NeighborList) Assign(addrs []overlay.Address, self overlay.Address) {
	// The leading run of addrs that repeats the current sequence keeps its
	// records and its index rows; only the per-entry fields start over.
	old, n, i := len(l.entries), 0, 0
	for ; i < len(addrs); i++ {
		a := addrs[i]
		if a == overlay.NilAddress || a == self {
			continue
		}
		if n == len(l.entries) || l.entries[n].Addr != a {
			break
		}
		*l.entries[n] = Neighbor{Addr: a, Key: overlay.HashAddress(a)}
		n++
	}
	// Whatever followed it in the list leaves the index, and its records are
	// rewritten in turn for the rest of addrs.
	kept := n
	for _, e := range l.entries[n:] {
		delete(l.index, e.Addr)
	}
	for _, a := range addrs[i:] {
		if a == overlay.NilAddress || a == self {
			continue
		}
		if _, repeat := l.index[a]; repeat {
			continue
		}
		if l.max > 0 && n >= l.max {
			break
		}
		if n == len(l.entries) {
			l.entries = append(l.entries, new(Neighbor))
		}
		e := l.entries[n]
		*e = Neighbor{Addr: a, Key: overlay.HashAddress(a)}
		l.index[a] = e
		n++
	}
	clear(l.entries[n:]) // drop the pointers, as Clear and Remove do
	l.entries = l.entries[:n]
	if kept != old || n != old {
		l.addrs = nil // the membership may have changed
	}
}

// Contains reports whether addr is in the list.
func (l *NeighborList) Contains(addr overlay.Address) bool {
	_, ok := l.index[addr]
	return ok
}

// Entry returns addr's entry, or nil.
func (l *NeighborList) Entry(addr overlay.Address) *Neighbor { return l.index[addr] }

// Random returns a uniformly random entry, or nil if empty.
func (l *NeighborList) Random(rng *rand.Rand) *Neighbor {
	if len(l.entries) == 0 {
		return nil
	}
	return l.entries[rng.Intn(len(l.entries))]
}

// First returns the first entry in insertion order, or nil.
func (l *NeighborList) First() *Neighbor {
	if len(l.entries) == 0 {
		return nil
	}
	return l.entries[0]
}

// Entries returns the entries in insertion order. The slice is a copy; the
// pointed-to neighbors are live.
func (l *NeighborList) Entries() []*Neighbor {
	return append([]*Neighbor(nil), l.entries...)
}

// Addrs returns the member addresses in insertion order. The array is lent:
// the list caches it and hands it out again until the next Add, Remove,
// Clear or Assign that changes the membership, which drops it without writing
// into it. A slice taken earlier — a foreach in progress, a deferred
// notification — therefore keeps the membership it saw. Callers must not
// write into it.
func (l *NeighborList) Addrs() []overlay.Address {
	if l.addrs == nil {
		l.addrs = l.copyAddrs()
	}
	return l.addrs
}

// copyAddrs returns the member addresses in a fresh array.
func (l *NeighborList) copyAddrs() []overlay.Address {
	out := make([]overlay.Address, len(l.entries))
	for i, e := range l.entries {
		out[i] = e.Addr
	}
	return out
}
