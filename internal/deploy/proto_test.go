package deploy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"runtime"
	"testing"

	"macedon/internal/check"
)

// frame returns the bytes Send writes for m.
func frame(t testing.TB, m *Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := &Conn{w: bufio.NewWriter(&buf)}
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recvFrom reads one message from data through a Conn, and returns the
// reader so a test can see what Recv left unread.
func recvFrom(data []byte) (*Msg, *bufio.Reader, error) {
	r := bufio.NewReader(bytes.NewReader(data))
	m, err := (&Conn{r: r}).Recv()
	return m, r, err
}

// FuzzRecv feeds hostile bytes to the control frame reader: it never
// panics, a header over maxFrame fails before Recv takes any body byte, and
// whatever it accepts comes back the same through Send and Recv.
func FuzzRecv(f *testing.F) {
	for _, m := range []*Msg{
		{Kind: KindHello, Hello: &Hello{Node: 7, Pid: 1234}},
		{Kind: KindOp, Op: &OpCmd{ID: 42, Kind: "lookup", Key: 0xdeadbeef, Size: 64}},
		{Kind: KindConfig, Config: &AgentConfig{Node: 1, Protocol: "chord",
			Params: map[string]int{"fix": 2}, Host: "127.0.0.1", BasePort: 41000}},
		{Kind: KindShape, Shape: &ShapeCmd{Rules: []PeerRule{{Peer: 3, Loss: 0.25}}, Default: &PeerRule{Drop: true}}},
		{Kind: KindMetrics, Metrics: &Metrics{MsgsSent: 9, Expo: "# TYPE x counter\nx 1\n"},
			State: &check.NodeState{}},
		{Kind: KindEvent, Event: &Event{Kind: EvObs, Line: "t=1s ev=deliver"}},
	} {
		f.Add(frame(f, m))
	}
	var oversize [4]byte
	binary.BigEndian.PutUint32(oversize[:], maxFrame+1)
	f.Add(append(oversize[:], `{"kind":"quit"}`...))
	full := frame(f, &Msg{Kind: KindQuit})
	f.Add(full[:len(full)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		m, r, err := recvFrom(data)
		if len(data) >= 4 && binary.BigEndian.Uint32(data) > maxFrame {
			if err == nil {
				t.Fatalf("a %d-byte header was accepted", binary.BigEndian.Uint32(data))
			}
			if rest, _ := io.ReadAll(r); !bytes.Equal(rest, data[4:]) {
				t.Fatalf("an oversize header took %d body bytes before failing", len(data)-4-len(rest))
			}
			return
		}
		if err != nil {
			return
		}
		wire, err := json.Marshal(m)
		if err != nil || len(wire) > maxFrame {
			return // escaping can push an accepted body past the frame bound
		}
		back, _, err := recvFrom(frame(t, m))
		if err != nil {
			t.Fatalf("a Send of an accepted frame does not Recv: %v", err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, wire) {
			t.Fatalf("round trip changed the message:\n%s\n%s", wire, again)
		}
	})
}

// TestRecvTruncatedFrameCostsWhatArrived: a header promising maxFrame bytes
// followed by a few and then EOF fails with io.ErrUnexpectedEOF, having
// allocated about what arrived rather than the promised megabyte.
func TestRecvTruncatedFrameCostsWhatArrived(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	data := append(hdr[:], `{"kind":`...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := recvFrom(data)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("Recv of a truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("Recv of a truncated frame allocated %d bytes, want under 64 KiB", got)
	}
}
