package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"macedon/internal/overlay"
	"macedon/internal/repo"
	"macedon/internal/substrate"
	"macedon/internal/topology"
)

// timerProgram runs one seeded random program of timer arms, stops and fires
// over eight endpoints and the global actor, and returns every fire as
// "at actor seq owner" in per-context order, with Executed and Pending at the
// end. With reset, each owner keeps one timer for life and re-arms it with
// Reset; without, every arm stops the owner's timer and asks After for a new
// one, which is what every owner did before timers could be re-armed.
//
// Each context draws from its own PRNG: an endpoint's fires act on that
// endpoint's owners only (they run on its shard), while the coordinator and
// global fires — which run with every shard parked — act on any owner. So
// the program is the same at every shard count, and so must its log be.
func timerProgram(seed int64, shards int, reset bool) timerRun {
	const clients = 8
	g := topology.NewGraph()
	routers := make([]topology.RouterID, 4)
	for i := range routers {
		routers[i] = g.AddRouter()
		if i > 0 {
			g.AddLink(routers[i-1], routers[i], time.Millisecond, 10_000_000, 64*1500)
		}
	}
	for a := 1; a <= clients; a++ {
		g.AttachClient(overlay.Address(a), routers[a%len(routers)], topology.DefaultAccess)
	}
	s := NewSharded(seed, shards)
	defer s.Close()
	n := New(s, g, Config{})

	type owner struct {
		name string
		sub  *NodeSubstrate // nil: the global actor
		tm   substrate.Timer
		fn   func()
	}
	type context struct {
		rng    *rand.Rand
		owners []*owner // the owners this context may touch
		log    []string
		resets int
	}
	var all []*owner
	ctxs := make([]*context, clients+1) // [0] is the global actor and the coordinator
	for c := range ctxs {
		ctxs[c] = &context{rng: rand.New(rand.NewSource(seed*100 + int64(c)))}
	}
	arm := func(c *context, o *owner, d time.Duration) {
		switch {
		case reset && o.tm != nil:
			o.tm.Reset(d)
			c.resets++
			return
		case o.tm != nil:
			o.tm.Stop()
		}
		if o.sub == nil {
			o.tm = s.After(d, o.fn)
		} else {
			o.tm = o.sub.After(d, o.fn)
		}
	}
	act := func(c *context) {
		for range c.rng.Intn(3) {
			o := c.owners[c.rng.Intn(len(c.owners))]
			switch op := c.rng.Intn(4); {
			case op < 3:
				arm(c, o, time.Duration(c.rng.Intn(4))*500*time.Microsecond) // zero and ties included
			case o.tm != nil:
				o.tm.Stop()
			}
		}
	}
	for c := range ctxs {
		for k := range 2 {
			o := &owner{name: fmt.Sprintf("%d.%d", c, k)}
			shard := 0
			if c > 0 {
				o.sub, _ = n.NodeNet(overlay.Address(c))
				shard = o.sub.Shard()
			}
			cx := ctxs[c]
			o.fn = func() {
				// The executing key: its shard's stamp (a global event stamps
				// every shard).
				k := s.shards[shard].cur
				cx.log = append(cx.log, fmt.Sprintf("%d %d %d %s", k.at, k.actor, k.seq, o.name))
				act(cx)
			}
			cx.owners = append(cx.owners, o)
			all = append(all, o)
		}
	}
	ctxs[0].owners = all
	for _, o := range all {
		arm(ctxs[0], o, time.Duration(ctxs[0].rng.Intn(4))*time.Millisecond)
	}
	for range 300 {
		act(ctxs[0])
		s.RunFor(time.Duration(1+ctxs[0].rng.Intn(3)) * 500 * time.Microsecond)
	}
	var b strings.Builder
	run := timerRun{executed: s.Executed(), pending: s.Pending()}
	for _, c := range ctxs {
		b.WriteString(strings.Join(c.log, "\n"))
		b.WriteString("\n--\n")
		run.fires += len(c.log)
		run.resets += c.resets
	}
	run.log = b.String()
	return run
}

// timerRun is what timerProgram observed.
type timerRun struct {
	log           string
	executed      uint64
	pending       int
	fires, resets int
}

// TestResetMatchesStopAndAfter: re-arming a timer in place keys and orders
// every event exactly as stopping it and allocating a new one did. The two
// programs must fire the same callbacks under the same (at, actor, seq) keys,
// execute the same number of events and leave the same heaps behind, at one
// shard and at four.
func TestResetMatchesStopAndAfter(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		var first string
		for _, shards := range []int{1, 4} {
			want, got := timerProgram(seed, shards, false), timerProgram(seed, shards, true)
			if got.fires < 200 || got.resets < 200 {
				t.Fatalf("seed %d: %d fires, %d resets: the program exercises too little", seed, got.fires, got.resets)
			}
			if got.log != want.log {
				t.Fatalf("seed %d shards=%d: Reset fires differ from Stop+After at %s", seed, shards, repo.FirstDiff(want.log, got.log))
			}
			if got.executed != want.executed || got.pending != want.pending {
				t.Fatalf("seed %d shards=%d: Reset executed %d, %d pending; Stop+After %d, %d",
					seed, shards, got.executed, got.pending, want.executed, want.pending)
			}
			if first == "" {
				first = got.log
			} else if got.log != first {
				t.Fatalf("seed %d: the log at shards=%d differs from shards=1", seed, shards)
			}
		}
	}
}
