package obs

import (
	"strings"
	"testing"
	"time"
)

func TestRecordString(t *testing.T) {
	r := Record{At: 12345678 * time.Microsecond, Level: LevelInfo, Name: "deliver",
		Fields: []Field{F("op", 3), F("node", 7), F("msg", "has space")}}
	want := `t=12.345678s lvl=info ev=deliver op=3 node=7 msg="has space"`
	if got := r.String(); got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestKeySamplerOrderIndependent(t *testing.T) {
	s := KeySampler{Seed: 42, N: 4}
	admitted := map[uint64]bool{}
	for k := uint64(0); k < 1000; k++ {
		admitted[k] = s.Admit("ev", k)
	}
	// Same decisions regardless of query order.
	for k := uint64(999); ; k-- {
		if s.Admit("ev", k) != admitted[k] {
			t.Fatalf("key %d: decision changed on re-query", k)
		}
		if k == 0 {
			break
		}
	}
	n := 0
	for _, ok := range admitted {
		if ok {
			n++
		}
	}
	// Roughly 1-in-4 of 1000 keys; the hash should land well inside [150, 350].
	if n < 150 || n > 350 {
		t.Errorf("admitted %d of 1000 keys at N=4", n)
	}
	// N<=1 admits all.
	all := KeySampler{Seed: 42, N: 1}
	if !all.Admit("ev", 12345) {
		t.Error("N=1 sampler rejected a key")
	}
}

func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	tb := &TokenBucket{Rate: 10, Burst: 2, Now: func() time.Time { return now }}
	if !tb.Admit("ev", 0) || !tb.Admit("ev", 0) {
		t.Fatal("burst of 2 not admitted")
	}
	if tb.Admit("ev", 0) {
		t.Fatal("admitted past burst with no elapsed time")
	}
	now = now.Add(100 * time.Millisecond) // refills 1 token at rate 10/s
	if !tb.Admit("ev", 0) {
		t.Fatal("refilled token not admitted")
	}
	if tb.Admit("ev", 0) {
		t.Fatal("admitted past refill")
	}
}

func TestEventLogSamplingAndRing(t *testing.T) {
	l := NewEventLog(KeySampler{Seed: 7, N: 2}, LevelInfo)
	for k := uint64(0); k < 100; k++ {
		l.EmitAt(time.Duration(k)*time.Millisecond, k, LevelInfo, "ev", F("k", k))
		l.EmitAt(time.Duration(k)*time.Millisecond, k, LevelDebug, "ev", F("k", k)) // below min
	}
	recs := l.Records()
	if len(recs) == 0 || len(recs) == 100 {
		t.Fatalf("sampler kept %d of 100", len(recs))
	}
	for _, r := range recs {
		if r.Level == LevelDebug {
			t.Fatal("level gate leaked a debug record")
		}
	}

	ring := NewEventLog(nil, LevelDebug)
	ring.SetCap(3)
	for i := 0; i < 5; i++ {
		ring.Emit(uint64(i), LevelInfo, "ev", F("i", i))
	}
	lines := ring.Lines()
	if len(lines) != 3 || !strings.Contains(lines[0], "i=2") || !strings.Contains(lines[2], "i=4") {
		t.Fatalf("ring retained %v", lines)
	}
	if ring.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", ring.Dropped())
	}
}

func TestEventLogWriter(t *testing.T) {
	var sb strings.Builder
	l := NewEventLog(nil, LevelDebug)
	l.SetWriter(&sb)
	l.EmitAt(time.Second, 0, LevelWarn, "late", F("x", 1))
	want := "t=1.000000s lvl=warn ev=late x=1\n"
	if sb.String() != want {
		t.Errorf("writer got %q want %q", sb.String(), want)
	}
}
