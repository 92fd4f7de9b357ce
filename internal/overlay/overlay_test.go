package overlay

import (
	"testing"
	"testing/quick"
)

func TestKeyBetween(t *testing.T) {
	cases := []struct {
		k, a, b Key
		want    bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, false},                 // open at a
		{10, 1, 10, false},                // open at b
		{0xfffffff0, 0xffffff00, 5, true}, // wraps zero
		{3, 0xffffff00, 5, true},
		{6, 0xffffff00, 5, false},
		{7, 10, 10, true}, // a==b: whole ring minus endpoint
		{10, 10, 10, false},
	}
	for _, c := range cases {
		if got := c.k.Between(c.a, c.b); got != c.want {
			t.Errorf("Key(%v).Between(%v,%v) = %v, want %v", c.k, c.a, c.b, got, c.want)
		}
	}
}

func TestKeyBetweenIncl(t *testing.T) {
	cases := []struct {
		k, a, b Key
		want    bool
	}{
		{10, 1, 10, true}, // closed at b
		{1, 1, 10, false},
		{5, 10, 10, true}, // a==b: everything qualifies
		{2, 0xfffffffe, 3, true},
	}
	for _, c := range cases {
		if got := c.k.BetweenIncl(c.a, c.b); got != c.want {
			t.Errorf("Key(%v).BetweenIncl(%v,%v) = %v, want %v", c.k, c.a, c.b, got, c.want)
		}
	}
}

// Property: for distinct a, b, k with k != a and k != b, exactly one of
// k in (a,b) and k in (b,a) holds — the two arcs partition the ring.
func TestKeyBetweenPartitionsRing(t *testing.T) {
	f := func(k, a, b Key) bool {
		if k == a || k == b || a == b {
			return true // excluded endpoints; vacuously fine
		}
		return k.Between(a, b) != k.Between(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyDigits(t *testing.T) {
	k := Key(0x12345678)
	want := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for i, d := range want {
		if got := k.Digit(i, 4); got != d {
			t.Errorf("Digit(%d) = %x, want %x", i, got, d)
		}
	}
	if got := k.WithDigit(0, 4, 0xf); got != Key(0xf2345678) {
		t.Errorf("WithDigit(0,4,f) = %v", got)
	}
	if got := k.WithDigit(7, 4, 0); got != Key(0x12345670) {
		t.Errorf("WithDigit(7,4,0) = %v", got)
	}
}

func TestKeySharedPrefix(t *testing.T) {
	cases := []struct {
		a, b Key
		want int
	}{
		{0x12345678, 0x12345678, 8},
		{0x12345678, 0x12345679, 7},
		{0x12345678, 0x22345678, 0},
		{0xabcd0000, 0xabcf0000, 3},
	}
	for _, c := range cases {
		if got := c.a.SharedPrefix(c.b, 4); got != c.want {
			t.Errorf("SharedPrefix(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: digit decomposition round-trips through WithDigit.
func TestKeyDigitRoundTrip(t *testing.T) {
	f := func(k Key) bool {
		var rebuilt Key
		for i := 0; i < 8; i++ {
			rebuilt = rebuilt.WithDigit(i, 4, k.Digit(i, 4))
		}
		return rebuilt == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRingDiffSymmetric(t *testing.T) {
	f := func(a, b Key) bool { return RingDiff(a, b) == RingDiff(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashDeterminism(t *testing.T) {
	if HashString("bullet") != HashString("bullet") {
		t.Fatal("HashString not deterministic")
	}
	if HashAddress(42) != HashAddress(42) {
		t.Fatal("HashAddress not deterministic")
	}
	if HashString("scribe") == HashString("chord") {
		t.Fatal("distinct strings should hash apart (collision in test vectors)")
	}
}

func TestAddressString(t *testing.T) {
	if got := Address(0x0a000001).String(); got != "10.0.0.1" {
		t.Errorf("Address string = %q", got)
	}
}
