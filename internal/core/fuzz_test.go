package core_test

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"testing"

	"macedon/internal/core"
	"macedon/internal/overlay"
	"macedon/internal/overlays"
)

// fuzzInstances are one instance of each generated protocol in the
// registry, in name order and detached from any network: the receive paths
// a hostile frame meets first. A new spec is fuzzed with no edit here.
func fuzzInstances(f *testing.F) []*core.Instance {
	var insts []*core.Instance
	for _, name := range slices.Sorted(maps.Keys(overlays.Protocols)) {
		inst, err := core.DetachedInstance(overlays.Protocols[name].New())
		if err != nil {
			f.Fatal(err)
		}
		insts = append(insts, inst)
	}
	return insts
}

// populate gives every exported field of a generated message struct a
// non-zero value, down through slices and structs, so the seed corpus
// exercises every codec accessor and leaves no nested slice nil: a nil
// slice decodes as an empty one, and the seed would not round-trip.
func populate(m overlay.Message) { fill(reflect.ValueOf(m).Elem(), 1) }

// fill sets v to a value derived from n, recursing into its elements.
func fill(v reflect.Value, n int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
		v.SetInt(int64(n))
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		v.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.5 + float64(n))
	case reflect.String:
		v.SetString("seed")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 3, 3)
		for j := 0; j < s.Len(); j++ {
			fill(s.Index(j), 10*n+j)
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fill(f, n+i)
			}
		}
	}
}

// FuzzDecodeMessage feeds arbitrary frames to the generated protocols'
// receive path: the instance's decode, which reads with the node's one Reader
// into the instance's one receive slot per message type. Seed corpus: one
// populated instance of every message every generated protocol registers. Properties: decoding never panics; whatever decodes re-encodes to
// a frame that decodes to the same message (decode∘encode is the identity on
// the codec's image); and a slot, Reader and Writer that earlier messages went
// through behave exactly like fresh ones — no field or byte of an earlier
// message shows up in a later one.
//
// A decode returns the slot itself, which the next frame of its type
// overwrites, so no two decoded messages are compared here. Each is encoded
// before the next decode on its instance, and the comparisons are between
// encodings.
func FuzzDecodeMessage(f *testing.F) {
	insts := fuzzInstances(f)
	seeds := make([][][]byte, len(insts)) // seeds[k][id]: instance k's populated message id
	var longest []byte
	var longestReg *overlay.Registry
	for k, inst := range insts {
		reg := core.DefOf(inst).Registry()
		for id := 0; id < reg.Len(); id++ {
			m, err := reg.New(uint16(id)) // a fresh message: the factory makes slots
			if err != nil {
				f.Fatal(err)
			}
			populate(m)
			frame, err := overlay.EncodeMessage(reg, m)
			if err != nil {
				f.Fatal(err)
			}
			back, err := core.Decode(inst, frame)
			if err != nil || !reflect.DeepEqual(back, m) {
				f.Fatalf("%s/%s: seed does not round-trip: %+v -> %+v (%v)", reg.Proto(), m.MsgName(), m, back, err)
			}
			if enc, err := overlay.EncodeMessage(reg, back); err != nil || !bytes.Equal(enc, frame) {
				f.Fatalf("%s/%s: seed re-encodes differently:\n% x\n% x (%v)", reg.Proto(), m.MsgName(), frame, enc, err)
			}
			seeds[k] = append(seeds[k], frame)
			f.Add(frame)
			if len(frame) > len(longest) {
				longest, longestReg = frame, reg
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 0, 0, 1, 0xff, 0xff}) // a list prefix promising 65535 elements

	// One Writer for the whole run, as a node has; dirty leaves every message
	// type's populated seed in the instance's slots and Reader, and the longest
	// seed message in the Writer.
	var w overlay.Writer
	dirty := func(t *testing.T, k int) {
		for _, frame := range seeds[k] {
			if _, err := core.Decode(insts[k], frame); err != nil {
				t.Fatal(err)
			}
		}
		m, err := overlay.DecodeMessage(longestReg, longest)
		if err == nil {
			_, err = w.EncodeMessage(longestReg, m)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for k, inst := range insts {
			reg := core.DefOf(inst).Registry()
			// A fresh message, Reader and Writer: the reference encoding.
			want, wantErr := overlay.DecodeMessage(reg, frame)
			var name string
			var enc []byte
			if wantErr == nil {
				name = reg.Proto() + "/" + want.MsgName()
				var err error
				if enc, err = overlay.EncodeMessage(reg, want); err != nil {
					t.Fatalf("%s decoded but does not encode: %v", name, err)
				}
			}
			// The same frame through the instance, into a used slot, straight
			// after a populated message of every type went through it.
			dirty(t, k)
			got, gotErr := core.Decode(inst, frame)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: the instance's decode says %v, a fresh one %v", reg.Proto(), gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if reused, err := w.EncodeMessage(reg, got); err != nil || !bytes.Equal(reused, enc) {
				t.Fatalf("%s: a used slot, Reader or Writer leaks between messages:\n% x\n% x (%v)", name, reused, enc, err)
			}
			again, err := overlay.DecodeMessage(reg, enc)
			if err != nil {
				t.Fatalf("%s: re-encoded frame does not decode: %v", name, err)
			}
			if enc2, err := overlay.EncodeMessage(reg, again); err != nil || !bytes.Equal(enc, enc2) {
				t.Fatalf("%s: decode∘encode is not the identity:\n% x\n% x (%v)", name, enc, enc2, err)
			}
		}
	})
}
