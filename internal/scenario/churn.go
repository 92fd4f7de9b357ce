package scenario

import (
	"container/heap"
	"math/bits"
	"math/rand"
	"time"
)

// Churn models: a churn spec expands into concrete kill instants at
// compile time, so the whole kill/revive schedule is a pure function of the
// scenario and seed. Victims are assigned later by the compiler's
// chronological walk (see schedule.go), which knows who is still up.

// killTimes generates the kill instants of a churn spec within
// [start, end), using rng for every random draw.
func killTimes(c *Churn, start, end time.Duration, rng *rand.Rand) []time.Duration {
	var out []time.Duration
	switch c.Model {
	case "poisson":
		// Independent kills: exponential interarrivals at Rate per second.
		arrivals(rng, c.Rate, start, end, func(t time.Duration) { out = append(out, t) })
	case "wave":
		// Massacres: Kill simultaneous deaths every Period, first wave one
		// period into the phase.
		for t, period := start, c.Period.D(); period < end-t; {
			t += period
			for i := 0; i < c.Kill; i++ {
				out = append(out, t)
			}
		}
	}
	return out
}

// arrivals calls fn at each instant of a Poisson process at rate per second
// in (start, end), in order, drawing each interarrival from rng before the
// call it leads to. Every step is at least 1 ns, so the walk ends however
// large the rate.
func arrivals(rng *rand.Rand, rate float64, start, end time.Duration, fn func(time.Duration)) {
	for t := start; ; {
		d := expDuration(rng, rate)
		if d >= end-t {
			return
		}
		t += d
		fn(t)
	}
}

// expDuration draws an exponential interarrival for a rate in events/sec,
// clamped to [1 ns, maxLength]: a draw that would round to zero still
// advances time, and one that would overflow stays summable.
func expDuration(rng *rand.Rand, ratePerSec float64) time.Duration {
	d := rng.ExpFloat64() / ratePerSec * float64(time.Second)
	if d < 1 {
		return 1
	}
	if d >= float64(maxLength) {
		return maxLength
	}
	return time.Duration(d)
}

// population tracks, during compilation, which node indices are up so that
// churn victims are always chosen among live nodes. Node 0 (the bootstrap)
// is never a churn victim. live is a Fenwick tree over up, so a pick costs
// O(log n) rather than a scan of the population.
type population struct {
	up      []bool
	live    []int // live[i] counts the up nodes in (i - i&-i, i], 1-based
	upCount int
	revives reviveQueue
}

func newPopulation(n int) *population {
	p := &population{up: make([]bool, n), live: make([]int, n+1), upCount: n}
	for i := range p.up {
		p.up[i] = true
		p.live[i+1] = (i + 1) & -(i + 1) // every node up
	}
	return p
}

// advance applies every revive due at or before t.
func (p *population) advance(t time.Duration) {
	for len(p.revives) > 0 && p.revives[0].at <= t {
		p.setUp(heap.Pop(&p.revives).(revive).node, true)
	}
}

func (p *population) setUp(node int, up bool) {
	if p.up[node] == up {
		return
	}
	p.up[node] = up
	d := -1
	if up {
		d = 1
	}
	p.upCount += d
	for i := node + 1; i < len(p.live); i += i & -i {
		p.live[i] += d
	}
}

// scheduleRevive records that node comes back at t. A node has at most one
// revive pending, and advance applies all that are due before the next
// pick, so the order among revives due together does not matter.
func (p *population) scheduleRevive(node int, t time.Duration) {
	heap.Push(&p.revives, revive{at: t, node: node})
}

// pickVictim chooses a live non-bootstrap node uniformly, or -1 if churn
// has exhausted the population: the k-th live node in index order, after
// node 0 when that is up.
func (p *population) pickVictim(rng *rand.Rand) int {
	candidates := p.upCount
	if p.up[0] {
		candidates--
	}
	if candidates <= 0 {
		return -1
	}
	k := rng.Intn(candidates)
	if p.up[0] {
		k++
	}
	// Descend the tree to the last prefix holding at most k live nodes;
	// the node after it is the (k+1)-th live one.
	pos := 0
	for step := 1 << bits.Len(uint(len(p.up))); step > 0; step >>= 1 {
		if next := pos + step; next < len(p.live) && p.live[next] <= k {
			pos, k = next, k-p.live[next]
		}
	}
	return pos
}

type revive struct {
	at   time.Duration
	node int
}

// reviveQueue is a min-heap of pending revives by instant.
type reviveQueue []revive

func (q reviveQueue) Len() int           { return len(q) }
func (q reviveQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q reviveQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *reviveQueue) Push(x any)        { *q = append(*q, x.(revive)) }
func (q *reviveQueue) Pop() any {
	old := *q
	r := old[len(old)-1]
	*q = old[:len(old)-1]
	return r
}
