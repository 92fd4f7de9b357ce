package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"macedon/internal/harness"
	"macedon/internal/obs"
	"macedon/internal/scenario"
)

// span is one timed call the benchmark made into a layer. Spans are recorded
// from the benchmark's side of the call only; spans inside the program are a
// later change. Times are microseconds since the tracer started.
type span struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	Parent   int     `json:"parent"` // -1 for the root
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
	Workload string  `json:"workload"` // shared by every span of one job
}

// tracer keeps the traced run's spans and CPU profile in memory and writes
// them out once, when the job has ended. All methods are no-ops on a nil
// tracer, so the timed variants carry no tracing cost.
type tracer struct {
	workload string
	seed     int64
	outDir   string
	t0       time.Time
	spans    []span
	prof     bytes.Buffer
}

func newTracer(workload string, seed int64, outDir string) *tracer {
	t := &tracer{workload: workload, seed: seed, outDir: outDir, t0: time.Now()}
	t.spans = append(t.spans, span{ID: 0, Name: "job", Parent: -1, Workload: workload})
	return t
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a child span of the root job span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: 0, StartUS: t.now(), Workload: t.workload})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndUS = t.now()
}

// spanSetup times the two set-up calls a run makes before the first event
// fires. RunScenarioExec repeats them internally; they are called here once
// more so each has a span of its own.
func (t *tracer) spanSetup(w *workload, seed int64) error {
	s := w.baseScenario(seed)
	sp := t.begin("scenario.Compile")
	_, err := scenario.Compile(s)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("harness.NewCluster")
	c, err := harness.NewCluster(clusterConfig(s, w.shards))
	t.end(sp)
	if err != nil {
		return err
	}
	c.StopAll()
	return nil
}

func (t *tracer) startProfile() error { return pprof.StartCPUProfile(&t.prof) }

// stopProfile ends the CPU profile; stopping twice is harmless.
func (t *tracer) stopProfile() { pprof.StopCPUProfile() }

// tracedResult is the per-layer yield of one traced run.
type tracedResult struct {
	// Counts holds the macedon_sched_*, macedon_engine_* and macedon_net_*
	// families parsed from the run's exposition. Counters are summed over a
	// sweep's variants; gauges are averaged.
	Counts         map[string]float64 `json:"counts"`
	CPUShare       map[string]float64 `json:"cpu_share"`
	ProfileSamples int64              `json:"profile_samples"`
	TraceFile      string             `json:"trace_file"`
}

var countedPrefixes = []string{"macedon_sched_", "macedon_engine_", "macedon_net_"}

// parseCounts reads the scheduler, engine and network families out of the
// reports' expositions.
func parseCounts(reports []*scenario.Report) (map[string]float64, error) {
	counts := map[string]float64{}
	gauges := map[string]bool{}
	n := 0
	for _, rep := range reports {
		if rep.Obs == nil {
			return nil, fmt.Errorf("traced run of %q returned no obs report", rep.Scenario)
		}
		sc, err := obs.ParseText([]byte(rep.Obs.Exposition))
		if err != nil {
			return nil, fmt.Errorf("parse exposition: %w", err)
		}
		n++
		for _, smp := range sc.Samples {
			if smp.Labels != "" {
				continue
			}
			for _, p := range countedPrefixes {
				if strings.HasPrefix(smp.Name, p) {
					counts[smp.Name] += smp.Value
					gauges[smp.Name] = sc.Types[smp.Name] == "gauge"
				}
			}
		}
	}
	for name, isGauge := range gauges {
		if isGauge {
			counts[name] /= float64(n)
		}
	}
	if counts["macedon_sched_events_total"] == 0 {
		return nil, fmt.Errorf("traced run reported no scheduler events")
	}
	return counts, nil
}

// finish stops the profiler, closes the root span, derives the per-layer
// numbers and writes <outDir>/<workload>.trace.json.
func (t *tracer) finish(res *jobResult, reports []*scenario.Report) (*tracedResult, error) {
	t.stopProfile()
	sp := t.begin("obs.ParseText")
	counts, err := parseCounts(reports)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	samples, err := parseCPUProfile(t.prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares, total := cpuShares(samples)
	t.spans[0].EndUS = t.now()

	out := &tracedResult{
		Counts:         counts,
		CPUShare:       shares,
		ProfileSamples: total,
		TraceFile:      filepath.Join(t.outDir, t.workload+".trace.json"),
	}
	doc := struct {
		Workload string        `json:"workload"`
		Seed     int64         `json:"seed"`
		Env      environment   `json:"env"`
		WallS    float64       `json:"wall_s"`
		Spans    []span        `json:"spans"`
		Traced   *tracedResult `json:"traced"`
	}{t.workload, t.seed, currentEnv(false), res.WallS, t.spans, out}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(t.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(out.TraceFile, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	return out, nil
}
