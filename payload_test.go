// Delivered bytes under the lending contract: a datagram is lent to its
// receiver for one callback, and a decoded byte-string field is valid only
// until its event chain ends (docs/architecture.md, "Who owns a frame
// buffer"). A protocol that keeps such a view longer reads storage the
// emulator has since reused. These runs make every byte of every payload
// count, so a view kept too long shows up as a corrupt delivery.
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"macedon/internal/core"
	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genbullet"
)

// opPayload is the payload of workload op id: its size and every byte derive
// from the id, so a payload spliced from another op, or from any other
// datagram, never compares equal.
func opPayload(id int) []byte {
	p := make([]byte, 40+(id*197)%1100)
	for j := range p {
		p[j] = byte(id*131 + j*7 + j>>8 + 1)
	}
	return p
}

// payloadCase is one protocol stack and what its workload sends.
type payloadCase struct {
	name  string
	stack []core.Factory
	// multicast: node 0 multicasts to the group; otherwise random live
	// nodes route to random keys.
	multicast bool
	// late nodes (the highest indices) spawn one by one mid-stream, so they
	// join a tree that already carries data.
	late int
}

func payloadCases(t *testing.T) []payloadCase {
	stack := func(proto string) []core.Factory {
		s, err := harness.ScenarioStack(proto)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var cases []payloadCase
	for _, proto := range []string{"chord", "pastry", "genchord", "genpastry"} {
		cases = append(cases, payloadCase{name: proto, stack: stack(proto)})
	}
	for _, proto := range []string{"genrandtree", "scribe", "splitstream", "nice", "overcast", "ammo", "bullet"} {
		cases = append(cases, payloadCase{name: proto, stack: stack(proto), multicast: true})
	}
	// A late joiner is caught up from its new parent's backlog.
	return append(cases, payloadCase{name: "overcast-late", stack: stack("overcast"), multicast: true, late: 3})
}

const payloadNodes = 16

// TestDeliveredPayloadsIntact runs every scenario protocol stack, plus
// overcast late joiners, under kill/revive churn at shards 1 and 4 with
// patterned payloads, and checks every delivered byte inside the Deliver
// handler. Bullet's candidate summaries never reach a
// handler, so the bullet run also watches the summaries each node keeps: a
// kept summary must not change underneath its holder.
func TestDeliveredPayloadsIntact(t *testing.T) {
	for _, tc := range payloadCases(t) {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				runPayloadCase(t, tc, shards)
			})
		}
	}
}

func runPayloadCase(t *testing.T, tc payloadCase, shards int) {
	c, err := harness.NewCluster(harness.ClusterConfig{
		Nodes: payloadNodes, Routers: 100, Seed: 2004, Shards: shards,
		HeartbeatAfter: 2 * time.Second, FailAfter: 6 * time.Second, Sweep: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopAll()
	group := overlay.HashString("payloads")

	// Deliver handlers run on their node's shard: the books take a lock.
	var mu sync.Mutex
	var delivered, corrupt, replayed int
	var firstBad string
	nextOp := 0
	spawnedAt := make([]int, payloadNodes) // nextOp when node i last spawned
	attach := func(i int) {
		n := c.Nodes[c.Addrs[i]]
		spawnedAt[i] = nextOp
		n.RegisterHandlers(core.Handlers{
			Deliver: func(p []byte, typ int32, _ overlay.Address) {
				ok := bytes.Equal(p, opPayload(int(typ)))
				mu.Lock()
				defer mu.Unlock()
				delivered++
				if int(typ) < spawnedAt[i] {
					replayed++
				}
				if !ok && corrupt == 0 {
					firstBad = fmt.Sprintf("node %d, op %d: %d bytes, want %d", i, typ, len(p), len(opPayload(int(typ))))
				}
				if !ok {
					corrupt++
				}
			},
		})
		if tc.multicast {
			if i == 0 {
				_ = n.CreateGroup(group)
			} else {
				_ = n.Join(group)
			}
		}
	}
	spawn := func(i int, revive bool) {
		var err error
		if revive {
			_, err = c.Revive(i, tc.stack)
		} else {
			_, err = c.Spawn(i, tc.stack)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	early := payloadNodes - tc.late
	for i := 0; i < early; i++ {
		c.SpawnAt(i, tc.stack, time.Duration(i)*time.Second) // staggered joins
	}
	c.RunFor(60 * time.Second) // joins and stabilization
	for i := 0; i < early; i++ {
		attach(i)
	}
	c.RunFor(15 * time.Second) // group trees

	rng := rand.New(rand.NewSource(7))
	summaries := map[*byte]string{} // bullet: every kept summary, by storage
	watched := 0
	down := map[int]int{} // killed node -> tick it revives at
	const ticks, opsPerTick = 200, 3
	for tick := 0; tick < ticks; tick++ {
		if tc.late > 0 && tick%20 == 10 && early < payloadNodes {
			spawn(early, false)
			attach(early)
			early++
		}
		if tick%15 == 5 {
			if v := 1 + rng.Intn(early-1); down[v] == 0 {
				c.Kill(v)
				down[v] = tick + 40
			}
		}
		for v, at := range down {
			if at == tick {
				spawn(v, true)
				attach(v)
				delete(down, v)
			}
		}
		live := func() int {
			for {
				if i := rng.Intn(early); down[i] == 0 {
					return i
				}
			}
		}
		for k := 0; k < opsPerTick; k++ {
			id, p := nextOp, opPayload(nextOp)
			nextOp++
			switch src := c.Nodes[c.Addrs[live()]]; {
			case tc.multicast:
				_ = c.Nodes[c.Addrs[0]].Multicast(group, p, int32(id), overlay.PriorityDefault)
			default:
				_ = src.Route(overlay.Key(rng.Uint32()), p, int32(id), overlay.PriorityDefault)
			}
		}
		c.RunFor(200 * time.Millisecond)
		for _, n := range c.Nodes {
			if b, ok := n.Top().Agent().(*genbullet.Agent); ok {
				for _, s := range keptSummaries(b) {
					key := unsafe.SliceData(s)
					if was, seen := summaries[key]; !seen {
						summaries[key] = string(s)
					} else if watched++; was != string(s) {
						t.Fatalf("a bullet node's kept candidate summary changed underneath it (tick %d)", tick)
					}
				}
			}
		}
	}
	c.RunFor(30 * time.Second) // drain

	mu.Lock()
	defer mu.Unlock()
	t.Logf("%d deliveries, %d replayed, %d summaries watched", delivered, replayed, watched)
	if corrupt > 0 {
		t.Fatalf("%d of %d deliveries corrupt; first: %s", corrupt, delivered, firstBad)
	}
	if delivered < nextOp/2 {
		t.Fatalf("degenerate run: %d deliveries for %d ops", delivered, nextOp)
	}
	if tc.late > 0 && replayed == 0 {
		t.Fatal("no node was caught up on data sent before it spawned")
	}
	if tc.name == "bullet" && watched == 0 {
		t.Fatal("no kept candidate summary was seen twice: the watch is vacuous")
	}
}

// keptSummaries returns the candidate summaries a bullet node keeps between
// epochs: its candidates state variable, an exported field of the agent.
func keptSummaries(b *genbullet.Agent) [][]byte {
	out := make([][]byte, 0, len(b.Candidates))
	for _, c := range b.Candidates {
		if len(c.Summary) > 0 {
			out = append(out, c.Summary)
		}
	}
	return out
}
