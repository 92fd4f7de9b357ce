package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/statecopy"
)

// drawProto draws from the node PRNG only when asked: downcall op k draws k
// numbers and keeps the last batch.
type drawProto struct{ drawn []int64 }

func (p *drawProto) ProtocolName() string { return "draw" }

func (p *drawProto) Define(d *Def) {
	d.Addressing(IPAddressing)
	d.UDPTransport("U")
	d.OnAPI(overlay.APIDowncallExt, Any, Write, func(ctx *Context, call *APICall) {
		p.drawn = p.drawn[:0]
		for range call.Op {
			p.drawn = append(p.drawn, ctx.Rand().Int63())
		}
	})
}

// TestNodeRandLazyRewinds: a node builds its PRNG from its seed on the first
// draw, so a protocol that never draws never holds one, and the stream is the
// one an eagerly seeded PRNG gives. A checkpoint taken before the first draw
// holds no PRNG; restoring it lets the next draw rebuild the same stream from
// the seed. A checkpoint taken after the first draw rewinds the PRNG in place.
func TestNodeRandLazyRewinds(t *testing.T) {
	r := newCoreRig(t, []overlay.Address{1, 2}, []Factory{func() Agent { return &drawProto{} }}, 1)
	n := r.nodes[1]
	r.sched.RunFor(60 * time.Second)
	if n.rng != nil {
		t.Fatal("a node whose protocol never drew holds a PRNG")
	}

	const k = 5
	p := n.Instance("draw").Agent().(*drawProto)
	draw := func() []int64 {
		t.Helper()
		n.Downcall(k, nil)
		if len(p.drawn) != k {
			t.Fatalf("drew %d numbers, want %d", len(p.drawn), k)
		}
		return slices.Clone(p.drawn)
	}
	ref := rand.New(rand.NewSource(n.seed))
	var want [2 * k]int64
	for i := range want {
		want[i] = ref.Int63()
	}

	before := statecopy.Capture(n)
	first := draw()
	if !slices.Equal(first, want[:k]) {
		t.Fatalf("first draws %v, want the seed's stream %v", first, want[:k])
	}
	before.Restore()
	if n.rng != nil {
		t.Fatal("restoring a checkpoint taken before the first draw left a PRNG")
	}
	if again := draw(); !slices.Equal(again, first) {
		t.Fatalf("after restoring the pre-draw checkpoint: %v, want %v", again, first)
	}

	after := statecopy.Capture(n)
	second := draw()
	if !slices.Equal(second, want[k:]) {
		t.Fatalf("second draws %v, want the stream's continuation %v", second, want[k:])
	}
	after.Restore()
	if again := draw(); !slices.Equal(again, second) {
		t.Fatalf("after restoring the post-draw checkpoint: %v, want %v", again, second)
	}
}
