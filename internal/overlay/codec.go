package overlay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Message is a protocol control or data message: the unit the TRANSITIONS
// section of a specification receives and the transmission primitives of
// §3.3.1 send. Implementations are plain structs whose fields mirror the
// MESSAGE FIELDS of the specification; the codec methods are what the code
// generator emits.
type Message interface {
	// MsgName returns the message's grammar name, e.g. "join_reply".
	MsgName() string
	// Encode appends the message's wire form.
	Encode(w *Writer)
	// Decode parses the message's wire form; it must consume exactly what
	// Encode produced.
	Decode(r *Reader) error
}

// Errors returned by the codec layer.
var (
	ErrShortMessage   = errors.New("overlay: truncated message")
	ErrUnknownMessage = errors.New("overlay: unknown message type")
	ErrTooLarge       = errors.New("overlay: field exceeds codec limit")
)

// Writer accumulates the big-endian wire form of a message. The zero value
// is ready to use. A Writer may be reused message after message (Reset
// retains its storage); bytes it returned belong to it until the next Reset.
//
// A list or string longer than its 16-bit count prefix can state is not
// written at all: the writer keeps ErrTooLarge until the next Reset and
// EncodeMessage returns it, so an oversized field fails the send instead of
// producing a frame that decodes as something else.
type Writer struct {
	buf []byte
	err error
}

// NewWriter returns a writer reusing buf's storage.
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf[:0]} }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes accumulated so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset discards accumulated bytes and any error, retaining storage.
func (w *Writer) Reset() { w.buf, w.err = w.buf[:0], nil }

// count16 appends the count prefix of a list or string of n elements,
// reporting whether n fits it; when it does not, nothing is appended and the
// writer fails.
func (w *Writer) count16(n int) bool {
	if n > math.MaxUint16 {
		w.err = ErrTooLarge
		return false
	}
	w.U16(uint16(n))
	return true
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// I32 appends a big-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 appends a big-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends an IEEE-754 float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Addr appends a node address.
func (w *Writer) Addr(a Address) { w.U32(uint32(a)) }

// Key appends a hash key.
func (w *Writer) Key(k Key) { w.U32(uint32(k)) }

// Bytes32 appends a length-prefixed byte string (max 4 GiB).
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String16 appends a length-prefixed string (max 64 KiB).
func (w *Writer) String16(s string) {
	if w.count16(len(s)) {
		w.buf = append(w.buf, s...)
	}
}

// Addrs appends a length-prefixed address list (max 65,535 entries): the
// grammar's "neighbor set" message field.
func (w *Writer) Addrs(as []Address) {
	if !w.count16(len(as)) {
		return
	}
	for _, a := range as {
		w.Addr(a)
	}
}

// Keys appends a length-prefixed key list (max 65,535 entries).
func (w *Writer) Keys(ks []Key) {
	if !w.count16(len(ks)) {
		return
	}
	for _, k := range ks {
		w.Key(k)
	}
}

// I32s appends a length-prefixed list of 32-bit integers (max 65,535).
func (w *Writer) I32s(vs []int32) {
	if !w.count16(len(vs)) {
		return
	}
	for _, v := range vs {
		w.I32(v)
	}
}

// I64s appends a length-prefixed list of 64-bit integers (max 65,535).
func (w *Writer) I64s(vs []int64) {
	if !w.count16(len(vs)) {
		return
	}
	for _, v := range vs {
		w.I64(v)
	}
}

// Reader consumes the wire form of a message. It is sticky-error: after the
// first failure every accessor returns zero values and Err reports the
// failure, so Decode bodies read linearly without per-field checks. A Reader
// may be reused frame after frame through Reset.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset points the reader at buf and clears any sticky error.
func (r *Reader) Reset(buf []byte) { r.buf, r.err = buf, nil }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = ErrShortMessage
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// U8 consumes one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 consumes a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 consumes a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 consumes a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I32 consumes a big-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 consumes a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 consumes an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool consumes a one-byte boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Addr consumes a node address.
func (r *Reader) Addr() Address { return Address(r.U32()) }

// Key consumes a hash key.
func (r *Reader) Key() Key { return Key(r.U32()) }

// Bytes32 consumes a length-prefixed byte string. The returned slice is a
// view of the input buffer, its capacity clipped to its length so that an
// append to it copies out instead of writing into what follows. The view is
// valid as long as the input is: for a delivered frame, until the event
// chain that decoded it ends (docs/architecture.md). Code that keeps the
// bytes longer copies them.
func (r *Reader) Bytes32() []byte {
	b := r.take(int(r.U32()))
	return b[:len(b):len(b)]
}

// String16 consumes a length-prefixed string.
func (r *Reader) String16() string {
	n := int(r.U16())
	return string(r.take(n))
}

// listLen consumes the u16 count of a list of 4-byte elements. A count the
// remaining input cannot hold fails here, before anything is allocated: a
// hostile prefix must not buy a 64 Ki-element slice with a 2-byte frame.
func (r *Reader) listLen() (int, bool) {
	n := int(r.U16())
	if r.err == nil && n > len(r.buf)/4 {
		r.err = ErrShortMessage
	}
	return n, r.err == nil
}

// Addrs consumes a length-prefixed address list into a fresh slice.
func (r *Reader) Addrs() []Address { return r.AppendAddrs(nil) }

// AppendAddrs consumes a length-prefixed address list, appends it to dst and
// returns the result: decoding into dst[:0] reuses dst's array. On failure
// dst comes back as it was, neither appended to nor grown.
func (r *Reader) AppendAddrs(dst []Address) []Address {
	n, ok := r.listLen()
	if !ok {
		return dst
	}
	dst = slices.Grow(dst, n)
	for range n {
		dst = append(dst, r.Addr())
	}
	return dst
}

// AppendI32s consumes a length-prefixed list of 32-bit integers into
// dst[:0]'s array, as AppendAddrs does.
func (r *Reader) AppendI32s(dst []int32) []int32 {
	n, ok := r.listLen()
	if !ok {
		return dst
	}
	dst = slices.Grow(dst, n)
	for range n {
		dst = append(dst, r.I32())
	}
	return dst
}

// AppendI64s consumes a length-prefixed list of 64-bit integers into
// dst[:0]'s array.
func (r *Reader) AppendI64s(dst []int64) []int64 {
	n := int(r.U16())
	if r.err != nil || n > len(r.buf)/8 {
		if r.err == nil {
			r.err = ErrShortMessage
		}
		return dst
	}
	dst = slices.Grow(dst, n)
	for range n {
		dst = append(dst, r.I64())
	}
	return dst
}

// Keys consumes a length-prefixed key list.
func (r *Reader) Keys() []Key {
	n, ok := r.listLen()
	if !ok {
		return nil
	}
	ks := make([]Key, n)
	for i := range ks {
		ks[i] = r.Key()
	}
	return ks
}

// Registry maps a protocol's message names to dense type identifiers and
// factories: the demultiplexing table the code generator emits for each
// specification (§3.2).
type Registry struct {
	proto   string
	byName  map[string]uint16
	entries []registryEntry
}

type registryEntry struct {
	name    string
	factory func() Message
}

// NewRegistry returns an empty registry for the named protocol.
func NewRegistry(proto string) *Registry {
	return &Registry{proto: proto, byName: make(map[string]uint16)}
}

// Proto returns the protocol name the registry belongs to.
func (r *Registry) Proto() string { return r.proto }

// Register assigns the next type identifier to the named message. It panics
// on duplicate names: registries are built once at protocol construction, so
// a duplicate is a programming error.
func (r *Registry) Register(name string, factory func() Message) uint16 {
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("overlay: duplicate message %q in protocol %q", name, r.proto))
	}
	id := uint16(len(r.entries))
	r.byName[name] = id
	r.entries = append(r.entries, registryEntry{name: name, factory: factory})
	return id
}

// ID returns the type identifier for the named message.
func (r *Registry) ID(name string) (uint16, bool) {
	id, ok := r.byName[name]
	return id, ok
}

// Len returns the number of registered message types.
func (r *Registry) Len() int { return len(r.entries) }

// Name returns the message name for a type identifier.
func (r *Registry) Name(id uint16) string {
	if int(id) >= len(r.entries) {
		return fmt.Sprintf("msg(%d)", id)
	}
	return r.entries[id].name
}

// New returns an empty message of the identified type. A factory may hand out
// recycled storage, so the message — and whatever DecodeMessage returns
// through it — is valid only until the next New or decode of that type on
// this registry.
func (r *Registry) New(id uint16) (Message, error) {
	if int(id) >= len(r.entries) {
		return nil, fmt.Errorf("%w: protocol %q id %d", ErrUnknownMessage, r.proto, id)
	}
	return r.entries[id].factory(), nil
}

// EncodeMessage resets w and renders m into it with its type header:
// [type u16][body]. The returned frame is w's storage — valid until w is
// next used — so a caller that sends one frame at a time and whose
// transport copies on Send encodes without allocating.
func (w *Writer) EncodeMessage(reg *Registry, m Message) ([]byte, error) {
	id, ok := reg.ID(m.MsgName())
	if !ok {
		return nil, fmt.Errorf("%w: protocol %q message %q", ErrUnknownMessage, reg.Proto(), m.MsgName())
	}
	w.Reset()
	w.U16(id)
	m.Encode(w)
	if w.err != nil {
		return nil, fmt.Errorf("%w: protocol %q message %q", w.err, reg.Proto(), m.MsgName())
	}
	return w.buf, nil
}

// DecodeMessage resets r over a [type u16][body] frame produced by
// EncodeMessage and parses it. Byte-string fields of the returned message
// alias frame.
func (r *Reader) DecodeMessage(reg *Registry, frame []byte) (Message, error) {
	r.Reset(frame)
	id := r.U16()
	if r.err != nil {
		return nil, r.err
	}
	m, err := reg.New(id)
	if err != nil {
		return nil, err
	}
	if err := m.Decode(r); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

// EncodeMessage renders a message with its type header into a fresh frame
// the caller owns. Code that encodes message after message keeps a Writer
// and calls its EncodeMessage instead.
func EncodeMessage(reg *Registry, m Message) ([]byte, error) {
	w := Writer{buf: make([]byte, 0, 64)}
	return w.EncodeMessage(reg, m)
}

// DecodeMessage parses a [type u16][body] frame produced by EncodeMessage.
func DecodeMessage(reg *Registry, frame []byte) (Message, error) {
	var r Reader
	return r.DecodeMessage(reg, frame)
}
