package obs

import (
	"reflect"
	"testing"
	"time"
)

func TestMintTraceIDStable(t *testing.T) {
	a := MintTraceID(42, 7)
	b := MintTraceID(42, 7)
	if a != b {
		t.Fatal("same (seed, op) minted different trace IDs")
	}
	if MintTraceID(42, 8) == a || MintTraceID(43, 7) == a {
		t.Fatal("distinct (seed, op) collided")
	}
}

// TestMergeSpansShardInvariant spreads the same spans over buffers two
// different ways and asserts the merged order is identical — the property
// that makes sim trace output byte-identical at -shards=1/4.
func TestMergeSpansShardInvariant(t *testing.T) {
	spans := []Span{
		{Trace: 1, Op: 0, Kind: SpanInject, Node: 2, Next: -1, At: 10 * time.Millisecond},
		{Trace: 1, Op: 0, Kind: SpanForward, Node: 2, Next: 5, At: 15 * time.Millisecond},
		{Trace: 1, Op: 0, Kind: SpanDeliver, Node: 5, Next: -1, At: 20 * time.Millisecond},
		{Trace: 2, Op: 1, Kind: SpanInject, Node: 0, Next: -1, At: 10 * time.Millisecond},
		{Trace: 2, Op: 1, Kind: SpanDeliver, Node: 0, Next: -1, At: 10 * time.Millisecond},
	}

	one := MergeSpans(spans)
	// Reverse order, scattered across four buffers.
	four := make([][]Span, 4)
	for i := len(spans) - 1; i >= 0; i-- {
		four[i%4] = append(four[i%4], spans[i])
	}
	if got := MergeSpans(four...); !reflect.DeepEqual(one, got) {
		t.Fatalf("merge differs across buffer assignments:\n%v\n%v", one, got)
	}

	// Causal tie-break: op 1's inject sorts before its deliver at the same
	// instant, and op 0's spans stay in hop order.
	m := one
	if m[0].Op != 0 || m[0].Kind != SpanInject {
		t.Fatalf("first span = %v", m[0])
	}
	if m[1].Op != 1 || m[1].Kind != SpanInject || m[2].Op != 1 || m[2].Kind != SpanDeliver {
		t.Fatalf("op 1 out of causal order at its shared instant: %v %v", m[1], m[2])
	}
}

func TestSpanString(t *testing.T) {
	f := Span{Trace: 0xabc, Op: 3, Kind: SpanForward, Node: 1, Next: 9, At: 1500 * time.Microsecond}
	if got, want := f.String(), "trace=0000000000000abc op=3 t=0.001500s forward node=1 next=9"; got != want {
		t.Errorf("got %q want %q", got, want)
	}
	d := Span{Trace: 0xabc, Op: 3, Kind: SpanDeliver, Node: 9, Next: -1, At: 2 * time.Millisecond}
	if got, want := d.String(), "trace=0000000000000abc op=3 t=0.002000s deliver node=9"; got != want {
		t.Errorf("got %q want %q", got, want)
	}
}
