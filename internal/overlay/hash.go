package overlay

import (
	"crypto/sha1"
	"encoding/binary"
	"sync/atomic"
)

// HashBytes maps arbitrary bytes onto the 32-bit hash address space using
// SHA-1, the hash the MACEDON libraries provide ("SHA hashing" in Figure 5).
// The digest is truncated to the keyspace width; truncation of a
// cryptographic hash preserves the uniformity consistent hashing relies on.
func HashBytes(b []byte) Key {
	sum := sha1.Sum(b)
	return Key(binary.BigEndian.Uint32(sum[:4]))
}

// HashString maps a string (e.g. a group name) onto the keyspace.
func HashString(s string) Key { return HashBytes([]byte(s)) }

// The HashAddress memo: a direct-mapped table indexed by the low memoBits of
// the address. One word holds a whole entry — bit 63 marks it valid, bits
// 32..47 carry the address bits the index does not, bits 0..31 the key — so
// a single atomic load or store always sees a self-consistent (address,
// key) pair and concurrent writers need no lock: they can only race to
// store true pairs. Untouched slots cost no resident memory.
const (
	memoBits  = 16
	memoValid = 1 << 63
)

var hashMemo [1 << memoBits]atomic.Uint64

// HashAddress maps a node address onto the keyspace: the node-identifier
// assignment used by Chord and Pastry ("it could be a hash of an IP
// address"). Nodes hash to the same key in every protocol, matching the
// paper's arrangement that its Chord and MIT lsd hash nodes identically.
//
// Generated routing code hashes the same few neighbor addresses over and
// over, so results are memoised. HashAddress is a pure function: the memo
// is invisible to determinism, safe across shards, and holds nothing a
// checkpoint would need to rewind.
func HashAddress(a Address) Key {
	slot := &hashMemo[uint32(a)&(1<<memoBits-1)]
	tag := memoValid | uint64(uint32(a)>>memoBits)<<32
	if e := slot.Load(); e&^0xffffffff == tag {
		return Key(uint32(e))
	}
	k := hashAddressSHA1(a)
	slot.Store(tag | uint64(k))
	return k
}

// hashAddressSHA1 is HashAddress without the memo.
func hashAddressSHA1(a Address) Key {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(a))
	return HashBytes(buf[:])
}
