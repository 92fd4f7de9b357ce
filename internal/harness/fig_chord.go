package harness

import (
	"time"

	"macedon/internal/core"
	"macedon/internal/metrics"
	"macedon/internal/overlays/genchord"
)

// ChordMode selects one Figure-10 curve: the fix_fingers policy of the
// generated Chord agent (specs/chord.mac's fix_ms and fix_adaptive).
type ChordMode struct {
	Name    string
	Dynamic bool          // lsd-style adaptive fix-fingers
	Period  time.Duration // static fix-fingers period (0: the spec's default)
}

// Figure10Modes are the paper's three curves: MACEDON with 1 s and 20 s
// static timers, and the MIT-lsd dynamic baseline.
func Figure10Modes() []ChordMode {
	return []ChordMode{
		{Name: "MACEDON (1 sec timer)", Period: time.Second},
		{Name: "MIT lsd (dynamic)", Dynamic: true},
		{Name: "MACEDON (20 sec timer)", Period: 20 * time.Second},
	}
}

// ChordParams configures the Figure-10 reproduction.
type ChordParams struct {
	Nodes       int // default 200 (paper: 1000)
	Routers     int // default 4*Nodes
	Seed        int64
	JoinWindow  time.Duration // joins staggered across this window (default 40 s)
	Duration    time.Duration // observation length (default 120 s)
	SampleEvery time.Duration // default 2 s, as the paper dumps tables
	Modes       []ChordMode
}

func (p *ChordParams) setDefaults() {
	if p.Nodes <= 0 {
		p.Nodes = 200
	}
	if p.JoinWindow <= 0 {
		p.JoinWindow = 40 * time.Second
	}
	if p.Duration <= 0 {
		p.Duration = 120 * time.Second
	}
	if p.SampleEvery <= 0 {
		p.SampleEvery = 2 * time.Second
	}
	if len(p.Modes) == 0 {
		p.Modes = Figure10Modes()
	}
}

// ChordResult is Figure 10: per mode, average correct route entries vs time.
type ChordResult struct {
	Series []Series
}

// RunChordConvergence reproduces Figure 10: staggered joins, routing tables
// sampled every two seconds and graded against the global-knowledge oracle.
func RunChordConvergence(p ChordParams) (*ChordResult, error) {
	p.setDefaults()
	res := &ChordResult{}
	for _, mode := range p.Modes {
		c, err := NewCluster(ClusterConfig{Nodes: p.Nodes, Routers: p.Routers, Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		fixMs, adaptive := int32(mode.Period/time.Millisecond), int32(0)
		if mode.Dynamic {
			adaptive = 1
		}
		stack := []core.Factory{func() core.Agent { return &genchord.Agent{FixMs: fixMs, FixAdaptive: adaptive} }}
		// Stagger joins uniformly across the window, bootstrap first.
		if _, err := c.Spawn(0, stack); err != nil {
			return nil, err
		}
		for i := 1; i < p.Nodes; i++ {
			at := time.Duration(int64(p.JoinWindow) * int64(i) / int64(p.Nodes))
			c.SpawnAt(i, stack, at)
		}
		oracle := metrics.NewChordOracle(c.Addrs)
		series := Series{Name: mode.Name}
		for elapsed := time.Duration(0); elapsed <= p.Duration; elapsed += p.SampleEvery {
			c.RunFor(p.SampleEvery)
			total := 0
			for _, a := range c.Addrs {
				n := c.Node(a)
				if n == nil {
					continue // not joined yet
				}
				ag := n.Instance("chord").Agent().(*genchord.Agent)
				total += oracle.CorrectFingers(a, ag.Fingers[:])
			}
			avg := float64(total) / float64(p.Nodes)
			series.Points = append(series.Points, Point{
				X: (elapsed + p.SampleEvery).Seconds(),
				Y: avg,
			})
		}
		c.StopAll()
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Print renders the convergence table, one column per mode.
func (r *ChordResult) Print(w func(format string, args ...any)) {
	w("Figure 10 — convergence toward correct routing tables\n")
	w("%-8s", "time(s)")
	for _, s := range r.Series {
		w(" %-24s", s.Name)
	}
	w("\n")
	if len(r.Series) == 0 {
		return
	}
	for i := range r.Series[0].Points {
		w("%-8.0f", r.Series[0].Points[i].X)
		for _, s := range r.Series {
			if i < len(s.Points) {
				w(" %-24.2f", s.Points[i].Y)
			}
		}
		w("\n")
	}
}

// FinalValues returns each mode's final average correct entries: the
// level-off points of the curves.
func (r *ChordResult) FinalValues() map[string]float64 {
	out := make(map[string]float64, len(r.Series))
	for _, s := range r.Series {
		if len(s.Points) > 0 {
			out[s.Name] = s.Points[len(s.Points)-1].Y
		}
	}
	return out
}
