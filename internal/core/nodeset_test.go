package core_test

import (
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/chord"
)

// TestGenChordSuccsOwnTheirArray: the engine decodes a generated message's
// nodeset field into the array its receive slot keeps from frame to frame, so
// a nodeset state variable must never share that array. On a settled
// generated Chord ring, where every node handles a get_pred_resp each
// stabilize round, a node's Succs and its instance's get_pred_resp slot share
// no storage, and decoding another get_pred_resp — through the instance, into
// the same slot and array — leaves Succs as it was.
func TestGenChordSuccsOwnTheirArray(t *testing.T) {
	c, err := harness.NewCluster(harness.ClusterConfig{Nodes: 6, Routers: 40, Seed: 424})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopAll)
	for i := range 6 {
		c.SpawnAt(i, []core.Factory{chord.New()}, time.Duration(i)*300*time.Millisecond)
	}
	c.RunFor(30 * time.Second)
	node := c.Nodes[c.Addrs[0]]
	node.Exec(func() {
		inst := node.Instance("chord")
		a := inst.Agent().(*chord.Agent)
		id, ok := core.DefOf(inst).Registry().ID("get_pred_resp")
		if !ok {
			t.Fatal("chord registers no get_pred_resp")
		}
		slot := core.RxSlot(inst, "get_pred_resp")
		if slot == nil {
			t.Fatal("the instance has no get_pred_resp receive slot: it decoded none, or not into a slot")
		}
		rx := succsOf(slot)
		if len(a.Succs) == 0 {
			t.Fatal("no successors: the ring did not form")
		}
		if cap(rx) == 0 {
			t.Fatal("the get_pred_resp receive slot kept no array from its last decode")
		}
		if overlap(rx, a.Succs) {
			t.Fatal("Succs shares its array with the get_pred_resp receive slot")
		}
		kept := slices.Clone(a.Succs)
		var w overlay.Writer
		w.U16(id)
		w.Addr(overlay.NilAddress)
		succs := make([]overlay.Address, cap(rx)) // fits: the decode must reuse the slot's array
		for i := range succs {
			succs[i] = overlay.Address(9000 + i)
		}
		w.Addrs(succs)
		m, err := core.Decode(inst, w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if m != slot {
			t.Fatal("the frame was not decoded into the instance's receive slot")
		}
		if got := succsOf(m); !slices.Equal(got, succs) || unsafe.SliceData(got) != unsafe.SliceData(rx) {
			t.Fatalf("decoded %v into a new array; want %v in the slot's", got, succs)
		}
		if !slices.Equal(a.Succs, kept) {
			t.Fatalf("decoding a get_pred_resp changed Succs from %v to %v", kept, a.Succs)
		}
	})
}

// succsOf reads a generated message's Succs field.
func succsOf(m overlay.Message) []overlay.Address {
	return reflect.ValueOf(m).Elem().FieldByName("Succs").Interface().([]overlay.Address)
}

// overlap reports whether the arrays behind a and b, to their capacities,
// share any element.
func overlap(a, b []overlay.Address) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	const size = unsafe.Sizeof(overlay.Address(0))
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b))*size && pb < pa+uintptr(cap(a))*size
}
