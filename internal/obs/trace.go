package obs

import (
	"fmt"
	"sort"
	"time"
)

// TraceID identifies one end-to-end operation trace. It is minted at
// injection from (scenario seed, op ID), so an emulated run and a live run
// of the same scenario mint identical IDs for the same workload ops.
type TraceID uint64

// MintTraceID derives the trace ID for a workload op.
func MintTraceID(seed int64, op int) TraceID {
	return TraceID(splitmix64(uint64(seed) ^ (uint64(op) << 1)))
}

// SpanKind classifies one hop record.
type SpanKind uint8

const (
	// SpanInject marks the workload injection at the origin node.
	SpanInject SpanKind = iota
	// SpanForward marks an intermediate routing hop (the forward upcall).
	SpanForward
	// SpanDeliver marks delivery at the owner/root.
	SpanDeliver
)

func (k SpanKind) String() string {
	switch k {
	case SpanInject:
		return "inject"
	case SpanForward:
		return "forward"
	case SpanDeliver:
		return "deliver"
	}
	return "unknown"
}

// Span is one hop of an operation trace. Node is the observing node's
// index; Next is the next-hop node index for forwards (-1 otherwise).
type Span struct {
	Trace TraceID
	Op    int
	Kind  SpanKind
	Node  int
	Next  int
	At    time.Duration
}

// String renders the span as one canonical line.
func (s Span) String() string {
	if s.Kind == SpanForward && s.Next >= 0 {
		return fmt.Sprintf("trace=%016x op=%d t=%.6fs %s node=%d next=%d",
			uint64(s.Trace), s.Op, s.At.Seconds(), s.Kind, s.Node, s.Next)
	}
	return fmt.Sprintf("trace=%016x op=%d t=%.6fs %s node=%d",
		uint64(s.Trace), s.Op, s.At.Seconds(), s.Kind, s.Node)
}

// MergeSpans returns the spans of every buffer — one per shard plus the
// coordinator's — in the canonical total order: (At, Op, kind rank, Node,
// Next). The order depends only on span content, so the merged sequence is
// identical however the spans were spread over buffers; kind rank places
// inject before forward before deliver so ties at the same instant read in
// causal order.
func MergeSpans(bufs ...[]Span) []Span {
	var out []Span
	for _, buf := range bufs {
		out = append(out, buf...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Next < b.Next
	})
	return out
}
