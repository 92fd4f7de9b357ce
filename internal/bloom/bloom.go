// Package bloom implements the bloom-filter library the paper lists among
// the extensible MACEDON libraries (§3.3). Bullet's summary tickets use these
// filters to advertise which data blocks a node holds so that peers with
// disjoint data can find each other.
package bloom

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
)

// Filter is a fixed-size bloom filter with k independent hash functions
// derived by double hashing. The zero value is unusable; construct with New.
type Filter struct {
	bits   []uint64
	m      uint32 // number of bits
	k      uint32 // number of hash functions
	nAdded int
}

// New returns a filter with m bits and k hash functions. m is rounded up to
// a multiple of 64. It panics if m or k is zero: filter geometry is fixed at
// design time, so a zero is a programming error.
func New(m, k int) *Filter {
	if m <= 0 || k <= 0 {
		panic("bloom: filter geometry must be positive")
	}
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: uint32(words * 64), k: uint32(k)}
}

// M returns the number of bits in the filter.
func (f *Filter) M() int { return int(f.m) }

// K returns the number of hash functions.
func (f *Filter) K() int { return int(f.k) }

// Count returns the number of Add calls since creation or Clear. It counts
// insertions, not distinct elements.
func (f *Filter) Count() int { return f.nAdded }

func (f *Filter) indexes(key uint64) (h1, h2 uint32) {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], key)
	h.Write(b[:])
	sum := h.Sum64()
	h1 = uint32(sum)
	h2 = uint32(sum>>32) | 1 // odd so the probe sequence covers the table
	return
}

// Add inserts a 64-bit element.
func (f *Filter) Add(key uint64) {
	h1, h2 := f.indexes(key)
	for i := uint32(0); i < f.k; i++ {
		bit := (h1 + i*h2) % f.m
		f.bits[bit/64] |= 1 << (bit % 64)
	}
	f.nAdded++
}

// Contains reports whether the element may have been inserted. False
// positives occur at the designed rate; false negatives never occur.
func (f *Filter) Contains(key uint64) bool {
	h1, h2 := f.indexes(key)
	for i := uint32(0); i < f.k; i++ {
		bit := (h1 + i*h2) % f.m
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Clear empties the filter in place.
func (f *Filter) Clear() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.nAdded = 0
}

// EstimateDisjointness returns the fraction of set bits in other that are
// clear in f — a cheap proxy for how much data the other node holds that
// this node lacks. Bullet ranks candidate mesh peers by this score.
func (f *Filter) EstimateDisjointness(other *Filter) float64 {
	if f.m != other.m {
		return 0
	}
	var theirs, fresh int
	for i := range f.bits {
		t := other.bits[i]
		theirs += popcount(t)
		fresh += popcount(t &^ f.bits[i])
	}
	if theirs == 0 {
		return 0
	}
	return float64(fresh) / float64(theirs)
}

func popcount(x uint64) int {
	// Hacker's Delight population count; avoids importing math/bits into the
	// hot loop path (identical codegen, kept explicit for clarity of intent).
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((x * 0x0101010101010101) >> 56)
}

// MarshalBinary encodes the filter for transmission inside a summary ticket.
func (f *Filter) MarshalBinary() ([]byte, error) {
	out := make([]byte, 12+8*len(f.bits))
	binary.BigEndian.PutUint32(out[0:], f.m)
	binary.BigEndian.PutUint32(out[4:], f.k)
	binary.BigEndian.PutUint32(out[8:], uint32(f.nAdded))
	for i, w := range f.bits {
		binary.BigEndian.PutUint64(out[12+8*i:], w)
	}
	return out, nil
}

// UnmarshalBinary decodes a filter produced by MarshalBinary.
func (f *Filter) UnmarshalBinary(b []byte) error {
	if len(b) < 12 {
		return errors.New("bloom: truncated filter encoding")
	}
	m := binary.BigEndian.Uint32(b[0:])
	k := binary.BigEndian.Uint32(b[4:])
	n := binary.BigEndian.Uint32(b[8:])
	words := int(m / 64)
	if m == 0 || m%64 != 0 || k == 0 || len(b) != 12+8*words {
		return errors.New("bloom: corrupt filter encoding")
	}
	f.m, f.k, f.nAdded = m, k, int(n)
	f.bits = make([]uint64, words)
	for i := range f.bits {
		f.bits[i] = binary.BigEndian.Uint64(b[12+8*i:])
	}
	return nil
}
