package harness

import (
	"encoding/binary"
	"time"

	"macedon/internal/core"
	"macedon/internal/overlay"
	"macedon/internal/overlays/genpastry"
)

// PastryParams configures the Figure-11 reproduction: the random-key
// streaming application of §4.2.3 (each instance streams 1000-byte packets
// at 10 Kbps to uniformly random hash destinations).
type PastryParams struct {
	Sizes         []int // node counts on the x-axis (default 25..250)
	Routers       int   // default 4*max size
	Seed          int64
	Converge      time.Duration // routing-table convergence idle (default 300 s)
	Measure       time.Duration // measurement window (default 30 s)
	PacketSize    int           // default 1000 bytes, at least 16 (send time and packet id)
	RateBitsSec   int           // default 10_000 (10 Kbps per node)
	FreePastryCap int           // baseline's max size (default 100, as the
	// paper could not run FreePastry beyond 100 participants)
}

func (p *PastryParams) setDefaults() {
	if len(p.Sizes) == 0 {
		p.Sizes = []int{25, 50, 100, 150, 200, 250}
	}
	if p.Converge <= 0 {
		p.Converge = 300 * time.Second
	}
	if p.Measure <= 0 {
		p.Measure = 30 * time.Second
	}
	if p.PacketSize <= 0 {
		p.PacketSize = 1000
	}
	p.PacketSize = max(p.PacketSize, 16)
	if p.RateBitsSec <= 0 {
		p.RateBitsSec = 10_000
	}
	if p.FreePastryCap <= 0 {
		p.FreePastryCap = 100
	}
}

// PastryResult is Figure 11: average packet latency vs overlay size for the
// MACEDON implementation and the FreePastry(RMI)-modeled baseline.
type PastryResult struct {
	MACEDON    Series
	FreePastry Series
}

// The FreePastry baseline's cost model. §4.2.3 attributes FreePastry's
// latency to Java RMI marshalling and memory pressure, which grow with the
// instance count: every data hop a node receives waits a fixed
// d = rmiBase + rmiPerNode × N before it is acted on. Nothing queues behind
// the wait, so a packet pays d once per forward upcall it meets, and the
// baseline follows from the MACEDON run itself.
const (
	rmiBase    = 40 * time.Millisecond
	rmiPerNode = 600 * time.Microsecond
)

// pastryTally is one Figure-11 run: the packets sent and, over the ones
// delivered, their summed latency and the forward upcalls they met.
type pastryTally struct {
	sent, delivered int
	latency         time.Duration
	forwards        int
}

// mean is the average delivered latency when each forward upcall costs d.
func (t pastryTally) mean(d time.Duration) time.Duration {
	if t.delivered == 0 {
		return 0
	}
	return (t.latency + time.Duration(t.forwards)*d) / time.Duration(t.delivered)
}

// RunPastryLatency reproduces Figure 11: one run per size gives both curves.
func RunPastryLatency(p PastryParams) (*PastryResult, error) {
	p.setDefaults()
	res := &PastryResult{MACEDON: Series{Name: "MACEDON"}, FreePastry: Series{Name: "FreePastry"}}
	for _, size := range p.Sizes {
		c, err := NewCluster(ClusterConfig{Nodes: size, Routers: p.Routers, Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		if err := c.SpawnAll(func(int) []core.Factory { return []core.Factory{genpastry.New()} }); err != nil {
			return nil, err
		}
		t := streamPastry(c, p)
		c.StopAll()
		res.MACEDON.Points = append(res.MACEDON.Points, Point{X: float64(size), Y: t.mean(0).Seconds()})
		if size <= p.FreePastryCap {
			res.FreePastry.Points = append(res.FreePastry.Points, Point{X: float64(size), Y: t.mean(rmiBase + time.Duration(size)*rmiPerNode).Seconds()})
		}
	}
	return res, nil
}

// streamPastry runs Figure 11's workload on a spawned cluster: converge,
// then every node streams to uniformly random keys at the configured rate.
// Each payload carries its send time and a packet id, which the forward
// hook counts hops against.
func streamPastry(c *Cluster, p PastryParams) pastryTally {
	var t pastryTally
	var hops []int // by packet id
	for _, a := range c.Addrs {
		c.Nodes[a].RegisterHandlers(core.Handlers{
			Forward: func(payload []byte, _ int32, _ overlay.Address, _ overlay.Key) bool {
				hops[binary.BigEndian.Uint64(payload[8:])]++
				return true
			},
			Deliver: func(payload []byte, _ int32, _ overlay.Address) {
				if sent, ok := DecodeTimestamp(payload); ok {
					t.latency += c.Sched.Now().Sub(sent)
					t.forwards += hops[binary.BigEndian.Uint64(payload[8:])]
					t.delivered++
				}
			},
		})
	}
	c.RunFor(p.Converge)
	interval := time.Duration(int64(p.PacketSize*8) * int64(time.Second) / int64(p.RateBitsSec))
	for elapsed := time.Duration(0); elapsed < p.Measure; elapsed += interval {
		for _, a := range c.Addrs {
			dest := overlay.Key(c.Sched.Rand().Uint32())
			payload := TimestampPayload(c.Sched.Now(), p.PacketSize)
			binary.BigEndian.PutUint64(payload[8:], uint64(t.sent))
			hops = append(hops, 0)
			t.sent++
			_ = c.Nodes[a].Route(dest, payload, 1, overlay.PriorityDefault)
		}
		c.RunFor(interval)
	}
	c.RunFor(10 * time.Second)
	return t
}

// Print renders Figure 11's two curves side by side.
func (r *PastryResult) Print(w func(format string, args ...any)) {
	w("Figure 11 — average latency of received Pastry packets\n")
	w("%-8s %-16s %-16s\n", "nodes", "MACEDON (s)", "FreePastry (s)")
	fp := make(map[float64]float64, len(r.FreePastry.Points))
	for _, pt := range r.FreePastry.Points {
		fp[pt.X] = pt.Y
	}
	for _, pt := range r.MACEDON.Points {
		if y, ok := fp[pt.X]; ok {
			w("%-8.0f %-16.3f %-16.3f\n", pt.X, pt.Y, y)
		} else {
			w("%-8.0f %-16.3f %-16s\n", pt.X, pt.Y, "(exceeds capacity)")
		}
	}
}
