// Package substrate defines the narrow interface between the MACEDON engine
// and whatever carries its packets and drives its clock: the simnet emulator
// (ModelNet's role in the paper) or livenet (native sockets on a real
// network). Generated protocol code never touches these directly; the engine
// and transport subsystems are the only consumers, which is what lets the
// same protocol run unmodified in emulation and live deployment (§4.3).
package substrate

import (
	"time"

	"macedon/internal/overlay"
)

// Timer is a cancellable pending callback. A timer belongs to the context
// that made it (a node's event loop, or the code driving the clock): only
// that context calls Stop and Reset, so owners that re-arm one callback keep
// one Timer for life instead of asking After for a new one each time.
type Timer interface {
	// Stop cancels the timer; it reports whether the callback was still
	// pending (false means it already fired or was already stopped).
	Stop() bool
	// Reset re-arms the timer's callback to run once after d, cancelling a
	// run that is still pending, whether the timer fired, was stopped, or
	// is pending: what Stop followed by After with the same callback does,
	// on the same Timer.
	Reset(d time.Duration)
}

// Clock schedules future work. Simulated clocks advance virtually; the live
// clock is the wall clock.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After schedules fn once after d. fn runs on the substrate's event
	// goroutine; it must not block.
	After(d time.Duration, fn func()) Timer
}

// Endpoint is an unreliable datagram port bound to one overlay address: the
// "network substrate (TCP/IP, ns)" box at the bottom of the paper's Figure 2.
// Reliability, ordering and congestion control are built above it by the
// transport subsystem.
type Endpoint interface {
	// Addr returns the address the endpoint is bound to.
	Addr() overlay.Address
	// Send transmits one datagram toward dst. Delivery is not guaranteed;
	// datagrams larger than MTU are rejected. Send copies what it keeps: the
	// caller may reuse payload as soon as it returns.
	Send(dst overlay.Address, payload []byte) error
	// SetRecv installs the delivery callback. It must be set before any
	// traffic arrives and may be set only once. A delivered payload is lent:
	// it is valid until the callback returns, after which the substrate
	// reuses its storage. The callback must not write into it, and must copy
	// whatever bytes it keeps.
	SetRecv(fn func(src overlay.Address, payload []byte))
	// MTU returns the largest payload Send accepts.
	MTU() int
}

// Network hands out endpoints and a clock: one per experiment or deployment.
type Network interface {
	Clock
	// Endpoint returns the datagram port for an attached address.
	Endpoint(addr overlay.Address) (Endpoint, error)
}
