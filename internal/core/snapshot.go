package core

// Checkpoint/fork support. A core.Node is forkable through
// internal/statecopy: capturing the node pointer records every piece of
// state the engine mutates while events execute — FSM state, protocol agent
// fields, neighbor lists, timer generations, engine counters, the
// failure-detector's heard/probed book, the node PRNG (nil until its first
// draw, which seeds it, so a branch restored to nil draws the same stream),
// and the whole transport subsystem underneath (mux incarnation bookkeeping,
// reliable connections with congestion/RTT/stream state, UDP reassembly
// buffers).
// Restoring rewrites that state into the same objects, which keeps the
// pointers captured by queued scheduler events valid (see
// internal/statecopy's package comment for the walk semantics).
//
// The contract a capture relies on:
//
//   - Quiescence: capture and restore happen between scheduler RunFor
//     windows, when the node's deferred-execution queue has fully drained
//     and no transition is mid-flight (every lock unlocked, the event ring
//     empty).
//   - Substrate handles are opaque: the node's clock and endpoints snapshot
//     themselves through the emulator's own Snapshot/Restore; timers queued
//     in the event heaps are rewound by the scheduler snapshot.
//   - Protocol agents keep their mutable state reachable from the agent
//     struct (fields, maps, slices, pointers). All bundled and generated
//     overlays do; an agent squirreling state away inside a long-lived
//     closure would escape the walk.
//
// The engine types below opt out of the walk entirely, as do the scratch
// types beside the code that uses them (hotPath in queue.go: the event ring
// and per-event scratch, empty or garbage at every quiescent point):

// StateCopyOpaque marks the protocol definition as shared across fork
// branches: a Def is immutable once built and indexed (the transition table,
// message registry, and declarations never change at run time), and a
// TypeDefined agent type's is shared by every node besides, so rewinding a
// branch never needs to touch it.
func (d *Def) StateCopyOpaque() {}

// StateCopyOpaque shares a timer's declaration the way the Def that owns it
// is shared: a timerState points at it, and without the marker every capture
// would walk the transitions Def.index resolved onto it.
func (*timerDecl) StateCopyOpaque() {}

// StateCopyOpaque marks the tracer as shared across fork branches: its only
// state is the output writer, its lock and the level, which belong to the
// experiment, not to the rewound timeline.
func (t *Tracer) StateCopyOpaque() {}
