package main

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"macedon/internal/core"
	"macedon/internal/livenet"
	"macedon/internal/overlay"
	"macedon/internal/overlays/bullet"
	"macedon/internal/scenario"
)

// TestLiveDeliveredPayloadsIntact is TestDeliveredPayloadsIntact's retention
// check over the live backend: real UDP sockets on localhost, where a lent
// datagram is livenet's reused read buffer and the transports' receive
// buffers, and every node's events run on its own goroutine. Generated
// Overcast (with late joiners, caught up from a parent's replay log),
// generated AMMO and Bullet stream patterned payloads from node 1; every
// delivered byte is checked in the Deliver handler, and Bullet's kept
// candidate summaries are watched for change underneath their holders.
// Run it under -race: it is the live lane of the lent-datagram checks.
func TestLiveDeliveredPayloadsIntact(t *testing.T) {
	cases := []struct {
		proto string
		late  int // nodes spawned one by one mid-stream
	}{{"overcast", 2}, {"ammo", 0}, {"bullet", 0}}
	for k, tc := range cases {
		t.Run(tc.proto, func(t *testing.T) {
			t.Parallel()
			stack, err := scenario.ResolveStack(tc.proto, nil)
			if err != nil {
				t.Fatal(err)
			}
			runLivePayloads(t, stack, tc.late, 36500+40*k)
		})
	}
}

func runLivePayloads(t *testing.T, stack []core.Factory, late, port int) {
	t.Helper()
	const nodes, ops = 8, 60
	net := livenet.New("127.0.0.1", port)
	defer net.Close()
	group := overlay.HashString("payloads")

	var mu sync.Mutex
	var delivered, corrupt, replayed int
	var firstBad string
	var live []*core.Node
	next := 0 // the next op id
	spawn := func(i int) {
		spawnedAt := next
		n, err := core.NewNode(core.Config{
			Addr: overlay.Address(i + 1), Net: net, Stack: stack, Bootstrap: 1,
			HeartbeatAfter: time.Second, FailAfter: 4 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Exec(func() {
			n.RegisterHandlers(core.Handlers{
				Deliver: func(p []byte, typ int32, _ overlay.Address) {
					ok := bytes.Equal(p, opPayload(int(typ)))
					mu.Lock()
					defer mu.Unlock()
					delivered++
					if int(typ) < spawnedAt {
						replayed++
					}
					if !ok {
						if corrupt == 0 {
							firstBad = fmt.Sprintf("node %d, op %d: %d bytes, want %d", i, typ, len(p), len(opPayload(int(typ))))
						}
						corrupt++
					}
				},
			})
		})
		if i == 0 {
			_ = n.CreateGroup(group)
		} else {
			_ = n.Join(group)
		}
		live = append(live, n)
	}
	defer func() {
		for _, n := range live {
			n.Stop()
		}
	}()
	for i := 0; i < nodes-late; i++ {
		spawn(i)
	}
	// Stream once every node of the tree layer has joined.
	tree := stack[0]().(interface{ ProtocolName() string }).ProtocolName()
	waitFor(t, 10*time.Second, func() bool {
		for _, n := range live {
			var st core.State
			n.Exec(func() { st = n.Instance(tree).State() })
			if st == core.StateInit || st == "joining" {
				return false
			}
		}
		return true
	})

	summaries := map[*byte]string{} // bullet: every kept summary, by storage
	watched, changed := 0, false
	for ; next < ops; next++ {
		id := next
		if late > 0 && id%(ops/(late+1)) == ops/(late+1)-1 && len(live) < nodes {
			spawn(len(live))
		}
		_ = live[0].Multicast(group, opPayload(id), int32(id), overlay.PriorityDefault)
		time.Sleep(100 * time.Millisecond) // the stream spans two of Bullet's 3 s epochs
		for _, n := range live {
			n.Exec(func() {
				b, ok := n.Top().Agent().(*bullet.Agent)
				if !ok {
					return
				}
				for _, s := range keptSummaries(b) {
					key := unsafe.SliceData(s)
					if was, seen := summaries[key]; !seen {
						summaries[key] = string(s)
					} else if watched++; was != string(s) {
						changed = true
					}
				}
			})
		}
	}
	// Drain: wait for every node to hold every op, or give up at the
	// deadline and judge what arrived.
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered >= ops*(nodes-1)
	})

	mu.Lock()
	defer mu.Unlock()
	t.Logf("%d deliveries of %d ops to %d nodes, %d replayed, %d summaries watched", delivered, ops, len(live), replayed, watched)
	if changed {
		t.Fatal("a bullet node's kept candidate summary changed underneath it")
	}
	if late > 0 && replayed == 0 {
		t.Fatal("no late node was caught up on data sent before it spawned")
	}
	if _, isBullet := stack[len(stack)-1]().(*bullet.Agent); isBullet && watched == 0 {
		t.Fatal("no kept candidate summary was seen twice: the watch is vacuous")
	}
	if corrupt > 0 {
		t.Fatalf("%d of %d deliveries corrupt; first: %s", corrupt, delivered, firstBad)
	}
	if delivered < ops {
		t.Fatalf("degenerate run: %d deliveries for %d ops", delivered, ops)
	}
}

// waitFor polls cond until it holds or d has passed.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond() && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
	}
}
