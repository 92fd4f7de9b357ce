// Package overlay defines the shared vocabulary of the MACEDON system: node
// addresses, the 32-bit hash keyspace used by hash-addressed protocols, the
// message abstraction with its binary wire codec, the overlay-generic API
// identifiers of Figure 3 of the paper, and transport/priority classes.
//
// Every other package — the engine, the transports, the emulator, and the
// protocol implementations — speaks in these types.
package overlay

import (
	"fmt"
)

// Address identifies an overlay node, playing the role of an IPv4 address in
// the paper ("addressing ip"). Address 0 is reserved and never assigned.
type Address int32

// NilAddress is the zero Address; it is never assigned to a node.
const NilAddress Address = 0

// String renders the address in dotted-quad style for traces.
func (a Address) String() string {
	u := uint32(a)
	return fmt.Sprintf("%d.%d.%d.%d", u>>24, (u>>16)&0xff, (u>>8)&0xff, u&0xff)
}

// Key is a point in the 32-bit circular hash address space ("addressing
// hash"). The paper notes its Chord uses a 32-bit hash space; we use the same
// space for every hash-addressed protocol so that nodes hash to identical
// positions across DHTs.
type Key uint32

// KeyBits is the width of the hash address space.
const KeyBits = 32

// String renders the key as fixed-width hex, which keeps traces alignable.
func (k Key) String() string { return fmt.Sprintf("%08x", uint32(k)) }

// Distance returns the clockwise ring distance from k to other.
func (k Key) Distance(other Key) uint32 { return uint32(other) - uint32(k) }

// Between reports whether k lies in the clockwise open interval (a, b).
// When a == b the interval is the whole ring minus the endpoint.
func (k Key) Between(a, b Key) bool {
	if a == b {
		return k != a
	}
	return a.Distance(k) != 0 && a.Distance(k) < a.Distance(b)
}

// BetweenIncl reports whether k lies in the clockwise half-open interval
// (a, b]: the Chord successor test.
func (k Key) BetweenIncl(a, b Key) bool {
	if a == b {
		return true
	}
	return a.Distance(k) != 0 && a.Distance(k) <= a.Distance(b)
}

// Digit returns the i-th base-2^b digit of the key, counting from the most
// significant digit. Pastry's prefix routing uses b=4 (hex digits).
func (k Key) Digit(i, b int) int {
	shift := KeyBits - (i+1)*b
	if shift < 0 {
		return 0
	}
	return int((uint32(k) >> uint(shift)) & ((1 << uint(b)) - 1))
}

// WithDigit returns a copy of k with its i-th base-2^b digit replaced by d.
func (k Key) WithDigit(i, b, d int) Key {
	shift := KeyBits - (i+1)*b
	if shift < 0 {
		return k
	}
	mask := uint32((1<<uint(b))-1) << uint(shift)
	return Key((uint32(k) &^ mask) | (uint32(d) << uint(shift) & mask))
}

// SharedPrefix returns the number of leading base-2^b digits k and other
// share. Pastry's routing-table row selection.
func (k Key) SharedPrefix(other Key, b int) int {
	n := KeyBits / b
	for i := 0; i < n; i++ {
		if k.Digit(i, b) != other.Digit(i, b) {
			return i
		}
	}
	return n
}

// KeyStep returns k + 2^i on the ring: the target of Chord's i-th finger.
// The shift wraps modulo the keyspace width so any non-negative index is
// safe (generated code passes spec-controlled indices through here).
func KeyStep(k Key, i int) Key {
	return Key(uint32(k) + 1<<(uint(i)%KeyBits))
}

// RingDiff returns the minimum of the clockwise and counter-clockwise
// distances between a and b: the metric Pastry leaf sets minimize.
func RingDiff(a, b Key) uint32 {
	d := a.Distance(b)
	if d2 := b.Distance(a); d2 < d {
		return d2
	}
	return d
}

// Priority classes for message transmission, highest first. A message sent
// with PriorityDefault uses the transport its declaration binds it to.
const (
	PriorityDefault = -1
	PriorityHighest = 0
	PriorityHigh    = 1
	PriorityMed     = 2
	PriorityLow     = 3
	PriorityBestEff = 4
)

// TransportKind names the three MACEDON transport disciplines of §3.1.
type TransportKind uint8

const (
	// TCP is reliable, in-order, congestion-friendly (slow start + AIMD).
	TCP TransportKind = iota
	// UDP is unreliable and congestion-unfriendly.
	UDP
	// SWP is the simple sliding-window protocol: reliable, in-order, but
	// congestion-unfriendly (fixed window, no backoff of the send rate).
	SWP
)

// String returns the grammar keyword for the transport kind.
func (t TransportKind) String() string {
	switch t {
	case TCP:
		return "TCP"
	case UDP:
		return "UDP"
	case SWP:
		return "SWP"
	}
	return fmt.Sprintf("TransportKind(%d)", uint8(t))
}

// API identifies the API transition kinds of the grammar (Figure 4): the
// calls a layer above (or the application) makes into a protocol instance.
type API uint8

const (
	APIInit API = iota
	APIRoute
	APIRouteIP
	APIMulticast
	APIAnycast
	APICollect
	APICreateGroup
	APIJoin
	APILeave
	APIError       // failure detector reports a monitored neighbor dead
	APINotify      // lower layer reports a changed neighbor set
	APIUpcallExt   // extensible upcall (lower layer -> this layer)
	APIDowncallExt // extensible downcall (higher layer -> this layer)
)

var apiNames = [...]string{
	APIInit:        "init",
	APIRoute:       "route",
	APIRouteIP:     "routeIP",
	APIMulticast:   "multicast",
	APIAnycast:     "anycast",
	APICollect:     "collect",
	APICreateGroup: "create_group",
	APIJoin:        "join",
	APILeave:       "leave",
	APIError:       "error",
	APINotify:      "notify",
	APIUpcallExt:   "upcall_ext",
	APIDowncallExt: "downcall_ext",
}

// String returns the grammar keyword for the API kind.
func (a API) String() string {
	if int(a) < len(apiNames) {
		return apiNames[a]
	}
	return fmt.Sprintf("API(%d)", uint8(a))
}

// NeighborType tags notify() upcalls with which neighbor relationship
// changed, mirroring the paper's NBR_TYPE_* constants.
type NeighborType uint8

const (
	NbrTypeParent NeighborType = iota
	NbrTypeChild
	NbrTypeSibling
	NbrTypePeer
	NbrTypeSuccessor
	NbrTypePredecessor
	NbrTypeFinger
	NbrTypeLeafSet
	NbrTypeRouteRow
	NbrTypeClusterMember
	NbrTypeMeshPeer
)

var nbrNames = [...]string{
	NbrTypeParent:        "parent",
	NbrTypeChild:         "child",
	NbrTypeSibling:       "sibling",
	NbrTypePeer:          "peer",
	NbrTypeSuccessor:     "successor",
	NbrTypePredecessor:   "predecessor",
	NbrTypeFinger:        "finger",
	NbrTypeLeafSet:       "leafset",
	NbrTypeRouteRow:      "routerow",
	NbrTypeClusterMember: "clustermember",
	NbrTypeMeshPeer:      "meshpeer",
}

// String names the neighbor type.
func (n NeighborType) String() string {
	if int(n) < len(nbrNames) {
		return nbrNames[n]
	}
	return fmt.Sprintf("NeighborType(%d)", uint8(n))
}
