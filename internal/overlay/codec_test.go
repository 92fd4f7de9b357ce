package overlay

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// testMsg exercises every codec field type.
type testMsg struct {
	A   uint8
	B   uint16
	C   uint32
	D   uint64
	E   int32
	F   int64
	G   float64
	H   bool
	Src Address
	Dst Key
	Buf []byte
	S   string
	As  []Address
	Ks  []Key
}

func (m *testMsg) MsgName() string { return "test" }

func (m *testMsg) Encode(w *Writer) {
	w.U8(m.A)
	w.U16(m.B)
	w.U32(m.C)
	w.U64(m.D)
	w.I32(m.E)
	w.I64(m.F)
	w.F64(m.G)
	w.Bool(m.H)
	w.Addr(m.Src)
	w.Key(m.Dst)
	w.Bytes32(m.Buf)
	w.String16(m.S)
	w.Addrs(m.As)
	w.Keys(m.Ks)
}

func (m *testMsg) Decode(r *Reader) error {
	m.A = r.U8()
	m.B = r.U16()
	m.C = r.U32()
	m.D = r.U64()
	m.E = r.I32()
	m.F = r.I64()
	m.G = r.F64()
	m.H = r.Bool()
	m.Src = r.Addr()
	m.Dst = r.Key()
	m.Buf = append([]byte(nil), r.Bytes32()...)
	m.S = r.String16()
	m.As = r.Addrs()
	m.Ks = r.Keys()
	return r.Err()
}

func TestCodecRoundTrip(t *testing.T) {
	in := &testMsg{
		A: 7, B: 300, C: 70000, D: 1 << 40, E: -5, F: -1 << 50,
		G: 3.25, H: true, Src: 99, Dst: 0xdeadbeef,
		Buf: []byte("payload"), S: "hello",
		As: []Address{1, 2, 3}, Ks: []Key{10, 20},
	}
	var w Writer
	in.Encode(&w)
	out := &testMsg{}
	if err := out.Decode(NewReader(w.Bytes())); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.A != in.A || out.B != in.B || out.C != in.C || out.D != in.D ||
		out.E != in.E || out.F != in.F || out.G != in.G || out.H != in.H ||
		out.Src != in.Src || out.Dst != in.Dst || out.S != in.S {
		t.Fatalf("scalar mismatch: %+v vs %+v", out, in)
	}
	if !bytes.Equal(out.Buf, in.Buf) {
		t.Fatalf("buf mismatch: %q vs %q", out.Buf, in.Buf)
	}
	if len(out.As) != 3 || out.As[1] != 2 || len(out.Ks) != 2 || out.Ks[1] != 20 {
		t.Fatalf("list mismatch: %+v", out)
	}
}

// Property: random scalar messages round-trip exactly.
func TestCodecRoundTripQuick(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64, e int32, g float64, h bool, buf []byte, s string) bool {
		if g != g { // NaN: equality can't verify round trip; skip
			return true
		}
		in := &testMsg{A: a, B: b, C: c, D: d, E: e, G: g, H: h, Buf: buf, S: s}
		if len(in.S) > 1000 {
			in.S = in.S[:1000]
		}
		var w Writer
		in.Encode(&w)
		out := &testMsg{}
		if err := out.Decode(NewReader(w.Bytes())); err != nil {
			return false
		}
		return out.A == in.A && out.B == in.B && out.C == in.C && out.D == in.D &&
			out.E == in.E && out.G == in.G && out.H == in.H &&
			bytes.Equal(out.Buf, in.Buf) && out.S == in.S
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBytes32IsAClippedView: a decoded byte string aliases the frame (no
// copy), and appending to it cannot write into the fields behind it.
func TestBytes32IsAClippedView(t *testing.T) {
	var w Writer
	w.Bytes32([]byte("abc"))
	w.U32(0x01020304)
	frame := bytes.Clone(w.Bytes())
	r := NewReader(frame)
	b := r.Bytes32()
	if &b[0] != &frame[4] {
		t.Fatal("Bytes32 copied instead of aliasing the input")
	}
	_ = append(b, 0xFF)
	if got := r.U32(); got != 0x01020304 || r.Err() != nil {
		t.Fatalf("append to a decoded field reached the next field: %#x, %v", got, r.Err())
	}
}

func TestReaderTruncation(t *testing.T) {
	in := &testMsg{Buf: []byte("0123456789"), S: "s"}
	var w Writer
	in.Encode(&w)
	full := w.Bytes()
	// Every strict prefix must fail with ErrShortMessage, never panic.
	for n := 0; n < len(full); n++ {
		out := &testMsg{}
		err := out.Decode(NewReader(full[:n]))
		if !errors.Is(err, ErrShortMessage) {
			t.Fatalf("prefix %d: err = %v, want ErrShortMessage", n, err)
		}
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U32() // fails
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	if got := r.U8(); got != 0 {
		t.Fatalf("post-error read = %d, want 0", got)
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry("p")
	idA := reg.Register("a", func() Message { return &testMsg{} })
	idB := reg.Register("b", func() Message { return &testMsg{} })
	if idA == idB {
		t.Fatal("duplicate ids")
	}
	if got, ok := reg.ID("a"); !ok || got != idA {
		t.Fatalf("ID(a) = %d,%v", got, ok)
	}
	if reg.Name(idB) != "b" {
		t.Fatalf("Name(idB) = %q", reg.Name(idB))
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d", reg.Len())
	}
	if _, err := reg.New(99); err == nil {
		t.Fatal("New(99) should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	reg.Register("a", func() Message { return &testMsg{} })
}

func TestEncodeDecodeMessage(t *testing.T) {
	reg := NewRegistry("p")
	reg.Register("test", func() Message { return &testMsg{} })
	in := &testMsg{C: 42, S: "x"}
	frame, err := EncodeMessage(reg, in)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMessage(reg, frame)
	if err != nil {
		t.Fatal(err)
	}
	if m.(*testMsg).C != 42 {
		t.Fatalf("round trip lost field: %+v", m)
	}
	if _, err := DecodeMessage(reg, []byte{0}); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("short frame err = %v", err)
	}
	if _, err := DecodeMessage(reg, []byte{0xff, 0xff}); !errors.Is(err, ErrUnknownMessage) {
		t.Fatalf("unknown type err = %v", err)
	}
	// Unregistered message name on the encode side.
	other := NewRegistry("q")
	if _, err := EncodeMessage(other, in); !errors.Is(err, ErrUnknownMessage) {
		t.Fatalf("unregistered encode err = %v", err)
	}
}

// TestWriterCountOverflow: a list or string one element past what its 16-bit
// count can state used to encode without error — the count wrapped, all the
// elements followed — and decode, also without error, as a different message
// (65,537 addresses then an int 7 came back as one address and 167772161).
// Each of the three counted fields must fail the encode instead, the largest
// countable length must still round-trip, and Reset must clear the failure.
func TestWriterCountOverflow(t *testing.T) {
	reg := NewRegistry("p")
	reg.Register("test", func() Message { return &testMsg{} })
	fields := map[string]func(n int) *testMsg{
		"String16": func(n int) *testMsg { return &testMsg{S: string(make([]byte, n))} },
		"Addrs":    func(n int) *testMsg { return &testMsg{As: make([]Address, n)} },
		"Keys":     func(n int) *testMsg { return &testMsg{Ks: make([]Key, n)} },
	}
	var w Writer
	for name, build := range fields {
		in := build(65535)
		in.E = 7
		frame, err := w.EncodeMessage(reg, in)
		if err != nil {
			t.Fatalf("%s: 65,535 elements: %v", name, err)
		}
		if out := mustDecode(t, reg, frame).(*testMsg); out.E != 7 || out.S != in.S ||
			!slices.Equal(out.As, in.As) || !slices.Equal(out.Ks, in.Ks) {
			t.Fatalf("%s: 65,535 elements did not round-trip", name)
		}
		for _, encode := range []func(*Registry, Message) ([]byte, error){w.EncodeMessage, EncodeMessage} {
			frame, err := encode(reg, build(65536))
			if !errors.Is(err, ErrTooLarge) || frame != nil {
				t.Fatalf("%s: 65,536 elements: %d-byte frame, err %v, want ErrTooLarge", name, len(frame), err)
			}
			if !strings.Contains(err.Error(), `protocol "p" message "test"`) {
				t.Fatalf("%s: error %q does not name the message", name, err)
			}
		}
		if _, err := w.EncodeMessage(reg, &testMsg{E: 7}); err != nil {
			t.Fatalf("%s: the failure outlived Reset: %v", name, err)
		}
	}
}

// A hostile length prefix must fail before it buys an allocation: a 2-byte
// body claiming 65535 elements used to make a 256 KiB slice first.
func TestReaderListPrefixBounded(t *testing.T) {
	hostile := []byte{0xff, 0xff, 1, 2, 3, 4}
	var r Reader
	for name, read := range map[string]func(){
		"Addrs": func() { _ = r.Addrs() },
		"Keys":  func() { _ = r.Keys() },
	} {
		allocs := testing.AllocsPerRun(10, func() {
			r.Reset(hostile)
			read()
		})
		if r.Err() != ErrShortMessage {
			t.Errorf("%s on a hostile prefix: err = %v, want ErrShortMessage", name, r.Err())
		}
		if allocs != 0 {
			t.Errorf("%s on a hostile prefix allocates %v times", name, allocs)
		}
	}
	// AppendAddrs hands dst back as it came: nothing appended, nothing grown.
	dst := make([]Address, 1, 2)
	dst[0] = 5
	r.Reset(hostile)
	if got := r.AppendAddrs(dst); len(got) != 1 || cap(got) != 2 || &got[0] != &dst[0] || r.Err() != ErrShortMessage {
		t.Errorf("AppendAddrs on a hostile prefix: %v (cap %d), err %v; want dst unchanged", got, cap(got), r.Err())
	}
	// An honest prefix still decodes, including the exact-fit case.
	var w Writer
	w.Addrs([]Address{7, 8, 9})
	r.Reset(w.Bytes())
	if got := r.Addrs(); len(got) != 3 || got[2] != 9 || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("Addrs = %v, err %v, %d left", got, r.Err(), r.Remaining())
	}
	// And appends into dst's own array when it has the room.
	dst = make([]Address, 0, 4)
	r.Reset(w.Bytes())
	if got := r.AppendAddrs(dst); len(got) != 3 || got[2] != 9 || &got[0] != &dst[:1][0] || r.Err() != nil {
		t.Fatalf("AppendAddrs = %v, err %v; want [7 8 9] in dst's array", got, r.Err())
	}
}

// A reused Writer and Reader carry nothing from one message to the next.
func TestReusedCodecBuffersDoNotLeak(t *testing.T) {
	reg := NewRegistry("test")
	reg.Register("test", func() Message { return &testMsg{} })
	long := &testMsg{S: "a long string that leaves plenty of bytes behind", Buf: bytes.Repeat([]byte{0xee}, 200), As: []Address{1, 2, 3}}
	short := &testMsg{S: "s"}
	var w Writer
	var r Reader
	if _, err := w.EncodeMessage(reg, long); err != nil {
		t.Fatal(err)
	}
	got, err := w.EncodeMessage(reg, short)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeMessage(reg, short)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reused Writer: % x\nfresh: % x", got, want)
	}
	longFrame, _ := EncodeMessage(reg, long)
	if _, err := r.DecodeMessage(reg, longFrame); err != nil {
		t.Fatal(err)
	}
	// Truncated: a reused Reader must not read on into the previous frame.
	if _, err := r.DecodeMessage(reg, want[:len(want)-1]); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("truncated frame on a reused Reader: err = %v", err)
	}
	m, err := r.DecodeMessage(reg, want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, mustDecode(t, reg, want)) {
		t.Fatalf("reused Reader decoded %+v", m)
	}
}

func mustDecode(t *testing.T, reg *Registry, frame []byte) Message {
	t.Helper()
	m, err := DecodeMessage(reg, frame)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestIntListsRoundTrip: intset and timeset fields round-trip, decode into
// the array they are given, and a count the frame cannot hold fails.
func TestIntListsRoundTrip(t *testing.T) {
	var w Writer
	w.I32s([]int32{-1, 7})
	w.I64s([]int64{1 << 40, -3})
	r := NewReader(w.Bytes())
	ints := r.AppendI32s(make([]int32, 0, 4))
	times := r.AppendI64s(nil)
	if r.Err() != nil || len(ints) != 2 || ints[0] != -1 || cap(ints) != 4 || len(times) != 2 || times[0] != 1<<40 {
		t.Fatalf("decoded %v %v (%v)", ints, times, r.Err())
	}
	bad := NewReader([]byte{0, 9, 0, 0, 0, 0})
	if got := bad.AppendI64s(nil); bad.Err() == nil || len(got) != 0 {
		t.Fatalf("a count past the frame decoded %v", got)
	}
}
