// Command macebench is the repository's benchmark. It runs whole emulated
// experiments as closed batch jobs, one at a time, each repetition in a
// fresh child process, and reports what a user of the emulator pays: wall
// and CPU time, memory, simulated work per host second, and whether the
// simulated overlay delivered. A separate traced run and a set of isolated
// drivers give the per-layer numbers that say where a change landed.
// README.md in this directory explains the workloads and how to read the
// output.
//
//	bash bench/macebench/run.sh -seed 2004                       # everything
//	bash bench/macebench/run.sh -workload churn_lookup -trace 0  # one workload, end-to-end only
//	bash bench/macebench/run.sh -selfcheck                       # do two runs of the same code agree?
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"macedon/internal/harness"
	"macedon/internal/scenario"
)

// environment is recorded with every result: numbers from different
// machines or toolchains are not comparable.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit,omitempty"`
}

// currentEnv describes this process. The commit comes from GITHUB_SHA or,
// when asked, from git; a checkout that is not a repository has none.
func currentEnv(withCommit bool) environment {
	e := environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     os.Getenv("GITHUB_SHA"),
	}
	if e.Commit == "" && withCommit {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
		cmd.Dir = repoRoot()
		if out, err := cmd.Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

// repoRoot finds the repository from the working directory: the nearest
// ancestor holding both specs/ and internal/, or the working directory
// itself when there is none. The benchmark is a module of its own, so
// go.mod does not mark the root.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if isDir(filepath.Join(d, "specs")) && isDir(filepath.Join(d, "internal")) {
			return d
		}
		if filepath.Dir(d) == d {
			return dir
		}
	}
}

func isDir(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.IsDir()
}

// options are the parsed command line.
type options struct {
	seed      int64
	seconds   int
	reps      int
	timed     bool // run the timed repetitions (end-to-end metrics)
	traced    bool // run the traced job (per-layer metrics)
	layers    bool // run the isolated drivers with the traced job
	outDir    string
	jsonPath  string
	history   string
	selfcheck bool
	verbose   bool
}

// progress reports what the benchmark is doing on stderr, under -v.
func (o *options) progress(format string, args ...any) {
	if o.verbose {
		fmt.Fprintf(os.Stderr, "macebench: "+format+"\n", args...)
	}
}

// defaultSeconds is the time budget of one workload's timed repetitions,
// and the run_seconds BENCHMARK.json asks an outside harness to pass.
const defaultSeconds = 24

// childTimeout bounds one job: a hung child must not hang the benchmark.
const childTimeout = 170 * time.Second

// usage is what the operating system charged a child process.
type usage struct {
	cpuS      float64
	peakRSSMB float64
}

// runChild runs one job of w in a fresh process and returns what it
// reported and what it cost. A fresh process is what a CLI user pays for,
// keeps one repetition's heap from leaking into the next, and has CPU time
// and peak memory of its own: CPU from its rusage, memory from the
// high-water mark it reports (rusage where the platform has none).
func runChild(w *workload, variant string, o *options) (*jobResult, usage, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, usage{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"-child", w.name, "-variant", variant,
		"-seed", fmt.Sprint(o.seed), "-out", o.outDir)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return nil, usage{}, fmt.Errorf("%s/%s child: %w", w.name, variant, err)
	}
	o.progress("%s/%s job: %.2fs", w.name, variant, time.Since(t0).Seconds())
	var res jobResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, usage{}, fmt.Errorf("%s/%s child output: %w", w.name, variant, err)
	}
	var u usage
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		u.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if res.PeakRSSKB > 0 {
		u.peakRSSMB = float64(res.PeakRSSKB) / 1024
	}
	return &res, u, nil
}

// peakRSSKB reads this process's resident-set high-water mark from
// /proc/self/status, or 0 where there is none. The child's ru_maxrss cannot
// be used on Linux: it survives exec, so it starts at whatever the parent
// had resident when it forked and would report the benchmark's own memory
// for every small job.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			_, _ = fmt.Sscanf(rest, "%d", &kb) // "VmHWM:	   19988 kB"; 0 if malformed
			return kb
		}
	}
	return 0
}

// childMain is the body of a child process: run one job, print its result.
func childMain(name, variant string, seed int64, outDir string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var tr *tracer
	if variant == variantTraced {
		tr = newTracer(w.name, seed, outDir)
	}
	res, err := runJob(w, variant, seed, tr)
	if err != nil {
		return err
	}
	res.PeakRSSKB = peakRSSKB()
	return json.NewEncoder(os.Stdout).Encode(res)
}

// One run times setupSamples × setupBatch set-ups after setupWarmups untimed
// ones and deals them to the samples in turn, so each sample is the median
// of setupBatch set-ups spread over the whole measurement: a sub-millisecond
// measurement on a shared host is only steady as a median of medians, and a
// burst of host noise then lands on every sample alike instead of on one.
const (
	setupWarmups = 40
	setupSamples = 25
	setupBatch   = 20
)

// measureSetup times what a run does before its first event fires:
// compiling the schedule and building the cluster, with the workload's
// exact configuration. It returns one summary per set, dealing set-ups to
// the sets in turn like measureTimed deals repetitions.
func measureSetup(w *workload, seed int64, sets int) ([]summary, error) {
	s := w.baseScenario(seed)
	batches := make([][]float64, sets*setupSamples)
	// A fresh process sets up on an empty heap and never collects while it
	// does. Collect between set-ups, not inside them, so a set-up costs here
	// what that first one costs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := -setupWarmups; i < len(batches)*setupBatch; i++ {
		if i%10 == 0 {
			runtime.GC()
		}
		t0 := time.Now()
		if _, err := scenario.Compile(s); err != nil {
			return nil, err
		}
		c, err := harness.NewCluster(clusterConfig(s, w.shards))
		el := time.Since(t0)
		if err != nil {
			return nil, err
		}
		c.StopAll()
		if i >= 0 {
			batches[i%len(batches)] = append(batches[i%len(batches)], el.Seconds())
		}
	}
	out := make([]summary, sets)
	for set := range out {
		var vals []float64
		for k := set; k < len(batches); k += sets {
			vals = append(vals, median(batches[k]))
		}
		out[set] = summarize(vals)
	}
	return out, nil
}

// timedResult is the end-to-end outcome of one workload.
type timedResult struct {
	Reps      int                `json:"reps"`
	Attempted int                `json:"attempted"`
	Metrics   map[string]summary `json:"metrics"`
	Job       *jobResult         `json:"job"` // the (identical) counts of every repetition
}

// sameOutput reports whether two jobs computed the same thing.
func sameOutput(a, b *jobResult) bool {
	if a.OpsSent != b.OpsSent || a.OpsDelivered != b.OpsDelivered || a.Datagrams != b.Datagrams || len(a.Fingerprints) != len(b.Fingerprints) {
		return false
	}
	for i := range a.Fingerprints {
		if a.Fingerprints[i] != b.Fingerprints[i] {
			return false
		}
	}
	return true
}

// checkJob is the correctness gate on one repetition.
func checkJob(w *workload, res, prev, ref *jobResult) error {
	if res.OpsSent == 0 || res.OpsDelivered == 0 {
		return fmt.Errorf("%s: no workload traffic (%d sent, %d delivered)", w.name, res.OpsSent, res.OpsDelivered)
	}
	if prev != nil && !sameOutput(res, prev) {
		return fmt.Errorf("%s: repetitions disagree: %d/%d ops, %d datagrams vs %d/%d ops, %d datagrams",
			w.name, res.OpsDelivered, res.OpsSent, res.Datagrams, prev.OpsDelivered, prev.OpsSent, prev.Datagrams)
	}
	if w.sweep != nil && !res.AllShared {
		return fmt.Errorf("%s: a variant ran cold instead of branching from the shared prefix", w.name)
	}
	if ref != nil && res.Fingerprints[0] != ref.Fingerprints[0] {
		return fmt.Errorf("%s: report and trace differ from the reference run", w.name)
	}
	if w.lossless && res.OpsDelivered != res.OpsExpected {
		return fmt.Errorf("%s: delivered %d of %d", w.name, res.OpsDelivered, res.OpsExpected)
	}
	return nil
}

// measureTimed runs the workload's timed repetitions: as many as fit in the
// time budget and never fewer than the workload's minimum, or exactly
// o.reps when given. With sets > 1 it fills that many independent result
// sets, dealing repetitions to them in turn so that every set samples the
// same stretch of host time; the budget and the minimum apply per set.
func measureTimed(w *workload, o *options, sets int) ([]*timedResult, error) {
	setups, err := measureSetup(w, o.seed, sets)
	if err != nil {
		return nil, err
	}
	out := make([]*timedResult, sets)
	vals := make([]map[string][]float64, sets)
	for i := range out {
		out[i] = &timedResult{Metrics: map[string]summary{"setup_s": setups[i]}}
		vals[i] = map[string][]float64{}
	}
	var ref, prev *jobResult
	if w.needsRef {
		if ref, _, err = runChild(w, variantRef, o); err != nil {
			return nil, err
		}
		out[0].Attempted++
	}
	deadline := time.Now().Add(time.Duration(o.seconds*sets) * time.Second)
	var last time.Duration
	for i := 0; ; i++ {
		t := out[i%sets]
		// Stop only on a set boundary, so every set has the same count.
		if i%sets == 0 {
			if o.reps > 0 {
				if t.Reps >= o.reps {
					break
				}
			} else if t.Reps >= w.minReps && time.Now().Add(time.Duration(sets)*last).After(deadline) {
				break
			}
		}
		t0 := time.Now()
		res, u, err := runChild(w, variantTimed, o)
		last = time.Since(t0)
		if err != nil {
			return nil, err
		}
		t.Reps++
		t.Attempted++
		if err := checkJob(w, res, prev, ref); err != nil {
			return nil, err
		}
		prev, t.Job = res, res
		for name, v := range map[string]float64{
			"wall_s":         res.WallS,
			"cpu_s":          u.cpuS,
			"node_sec_per_s": res.NodeSec / res.WallS,
			"mallocs_M":      float64(res.Mallocs) / 1e6,
			"alloc_MB":       float64(res.AllocBytes) / 1e6,
			"peak_rss_MB":    u.peakRSSMB,
			"delivery_ratio": float64(res.OpsDelivered) / float64(res.OpsExpected),
		} {
			vals[i%sets][name] = append(vals[i%sets][name], v)
		}
	}
	for i, t := range out {
		for name, v := range vals[i] {
			t.Metrics[name] = summarize(v)
		}
	}
	return out, nil
}

// measureTraced runs the workload's traced job and the companion jobs its
// per-layer ratios need. baseWall is the untraced wall to compare against;
// zero means none was measured, and one untraced job is run for it.
func measureTraced(w *workload, o *options, baseWall float64) (out []layerMetric, jobs int, err error) {
	traced, _, err := runChild(w, variantTraced, o)
	if err != nil {
		return nil, 0, err
	}
	if traced.Traced == nil {
		return nil, 0, fmt.Errorf("%s: traced child returned no trace", w.name)
	}
	jobs = 3
	if baseWall == 0 {
		base, _, err := runChild(w, variantTimed, o)
		if err != nil {
			return nil, 0, err
		}
		baseWall = base.WallS
		jobs++
	}
	hand, _, err := runChild(w, variantHand, o)
	if err != nil {
		return nil, 0, err
	}
	lat, _, err := runChild(w, variantLatency, o)
	if err != nil {
		return nil, 0, err
	}
	c := traced.Traced.Counts
	events := c["macedon_sched_events_total"]
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	out = []layerMetric{
		layerValue("simnet.events", events),
		layerValue("simnet.events_per_s", events/traced.WallS),
		layerValue("simnet.allocs_per_event", float64(traced.Mallocs)/events),
		layerValue("simnet.barrier_stall_ratio", ratio(c["macedon_sched_barrier_stall_ns_total"], traced.VirtualS*1e9)),
		layerValue("simnet.window_utilization", c["macedon_sched_window_utilization"]),
		layerValue("simnet.heap_depth", c["macedon_sched_heap_depth"]),
		layerValue("simnet.pool_recycle_ratio", ratio(c["macedon_sched_pool_recycled_total"], c["macedon_sched_pool_gets_total"])),
		layerValue("simnet.pkt_drop_ratio", ratio(c["macedon_net_dropped_total"], c["macedon_net_sent_total"])),
		layerValue("simnet.latency_partitioner_wall_s", lat.WallS),
		layerValue("core.msgs_sent", c["macedon_engine_msgs_sent_total"]),
		layerValue("core.bytes_sent", c["macedon_engine_bytes_sent_total"]),
		layerValue("overlays.hand_vs_gen_wall_ratio", hand.WallS/baseWall),
		layerValue("obs.run_overhead_ratio", traced.WallS/baseWall),
	}
	for _, l := range cpuLayers {
		out = append(out, layerValue(l+".cpu_share", traced.Traced.CPUShare[l]))
	}
	return out, jobs, nil
}

// workloadReport is everything one invocation learned about one workload.
type workloadReport struct {
	Workload string        `json:"workload"`
	Why      string        `json:"why"`
	Timed    *timedResult  `json:"end_to_end,omitempty"`
	PerLayer []layerMetric `json:"per_layer,omitempty"`
	// Jobs counts every child job run for the workload: the operations the
	// metrics line reports as attempted.
	Jobs int `json:"jobs"`
}

// contractLine is the machine-readable last line of a workload's output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *workloadReport) print() error {
	fmt.Printf("== %s\n", r.Workload)
	line := contractLine{Correct: true, Attempted: r.Jobs, Metrics: map[string]metricValue{}}
	if t := r.Timed; t != nil {
		fmt.Printf("   %d repetitions, %d/%d ops delivered, %d datagrams, all repetitions identical\n",
			t.Reps, t.Job.OpsDelivered, t.Job.OpsExpected, t.Job.Datagrams)
		for _, m := range endToEnd {
			s := t.Metrics[m.Name]
			fmt.Printf("   %-16s %14.6g %-9s q1 %-12.6g q3 %-12.6g n=%-3d spread %5.2f%%  bound %2.0f%%\n",
				m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N, 100*s.spread(), 100*m.Bound)
			line.Metrics[m.Name] = metricValue{s.Median, m.Unit}
		}
	}
	for _, m := range r.PerLayer {
		fmt.Printf("   %-36s %14.6g %s\n", m.Name, m.Value, m.Unit)
		line.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// runWorkloads measures the selected workloads and prints each as it
// finishes. A failed check aborts before that workload's metrics line.
func runWorkloads(ws []*workload, o *options) ([]*workloadReport, error) {
	var layers []layerMetric
	if o.traced && o.layers {
		var err error
		if layers, err = runLayers(o.seed, time.Duration(o.seconds)*time.Second/2, o.progress); err != nil {
			return nil, err
		}
	}
	var reports []*workloadReport
	for _, w := range ws {
		r := &workloadReport{Workload: w.name, Why: w.why}
		baseWall := 0.0
		if o.timed {
			ts, err := measureTimed(w, o, 1)
			if err != nil {
				return reports, err
			}
			r.Timed, baseWall = ts[0], ts[0].Metrics["wall_s"].Median
			r.Jobs += ts[0].Attempted
		}
		if o.traced {
			traced, jobs, err := measureTraced(w, o, baseWall)
			if err != nil {
				return reports, err
			}
			r.Jobs += jobs
			r.PerLayer = append(append(r.PerLayer, layers...), traced...)
			if o.layers {
				if err := checkPerLayer(r.PerLayer); err != nil {
					return reports, err
				}
			}
		}
		if err := r.print(); err != nil {
			return reports, err
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// selfcheck measures every selected workload twice with the same binary and
// fails unless each end-to-end metric of the second set is within its bound
// of the first. The two sets take alternate repetitions, as a comparison of
// two builds should, so drift of the host does not pass for a difference.
// Unresolved counts as a failure: a benchmark that cannot tell two runs of
// the same code apart cannot judge a change.
func selfcheck(ws []*workload, o *options) error {
	bad := 0
	for _, w := range ws {
		sets, err := measureTimed(w, o, 2)
		if err != nil {
			return err
		}
		fmt.Printf("== %s\n", w.name)
		for _, m := range endToEnd {
			a, b := sets[0].Metrics[m.Name], sets[1].Metrics[m.Name]
			v := compare(a, b, m)
			if v != verdictOK {
				bad++
			}
			fmt.Printf("   %-16s A %12.6g (spread %5.2f%%)  B %12.6g (spread %5.2f%%)  change %+6.2f%%  bound %2.0f%%  %s\n",
				m.Name, a.Median, 100*a.spread(), b.Median, 100*b.spread(), 100*worsening(a, b, m), 100*m.Bound, v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) not within their bound between two runs of the same code", bad)
	}
	fmt.Println("selfcheck: every end-to-end metric agrees within its bound")
	return nil
}

func parseTrace(v string) (timed, traced bool, err error) {
	switch strings.ToLower(v) {
	case "", "both":
		return true, true, nil
	case "0", "false":
		return true, false, nil
	case "1", "true":
		return false, true, nil
	}
	return false, false, fmt.Errorf("-trace %q: want 0, 1 or both", v)
}

func run() error {
	var (
		o       options
		one     = flag.String("workload", "", "run this one workload")
		many    = flag.String("workloads", "", "comma-separated workloads to run (default: all)")
		trace   = flag.String("trace", "both", "0: timed repetitions only (end-to-end metrics); 1: traced job and layer drivers only (per-layer metrics); both")
		child   = flag.String("child", "", "internal: run one job of this workload and print its result")
		variant = flag.String("variant", variantTimed, "internal: job variant of -child")
	)
	flag.StringVar(&o.outDir, "out", "", "directory for trace files (default bench/macebench/out under the repository root)")
	flag.Int64Var(&o.seed, "seed", 2004, "seed every scenario and driver input derives from")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "time budget of one workload's timed repetitions, in seconds")
	flag.IntVar(&o.reps, "reps", 0, "run exactly this many timed repetitions instead of filling -seconds")
	flag.BoolVar(&o.layers, "layers", true, "run the isolated layer drivers with the traced job")
	flag.StringVar(&o.jsonPath, "json", "", "also write the full result document to this file")
	flag.StringVar(&o.history, "history", "", "append the end-to-end medians to this trajectory file (benchjson document shape)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "measure twice with this binary and fail unless the two sets agree within the bounds")
	flag.BoolVar(&o.verbose, "v", false, "report progress on stderr")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	// Two threads, or one on a single-CPU host: the load the bounds were
	// set under. Children inherit nothing; they pin themselves here too.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if o.outDir == "" {
		o.outDir = filepath.Join(repoRoot(), "bench", "macebench", "out")
	}
	if *child != "" {
		return childMain(*child, *variant, o.seed, o.outDir)
	}
	var err error
	if o.timed, o.traced, err = parseTrace(*trace); err != nil {
		return err
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	names := *many
	if *one != "" {
		names = *one
	}
	ws := workloads
	if names != "" {
		ws = nil
		for _, n := range strings.Split(names, ",") {
			w := findWorkload(strings.TrimSpace(n))
			if w == nil {
				return fmt.Errorf("unknown workload %q (have %s)", n, workloadNames())
			}
			ws = append(ws, w)
		}
	}

	env := currentEnv(o.jsonPath != "" || o.history != "")
	fmt.Printf("macebench seed=%d %s %s/%s nproc=%d GOMAXPROCS=%d commit=%s\n",
		o.seed, env.GoVersion, env.GOOS, env.GOARCH, env.NumCPU, env.GOMAXPROCS, orUnknown(env.Commit))
	fmt.Printf("load: closed batch, one job at a time, each repetition a fresh process\n")
	if o.selfcheck {
		return selfcheck(ws, &o)
	}
	reports, err := runWorkloads(ws, &o)
	if err != nil {
		return err
	}
	if o.jsonPath != "" {
		doc := struct {
			Env       environment       `json:"env"`
			Seed      int64             `json:"seed"`
			Bounds    []metricSpec      `json:"end_to_end_metrics"`
			Workloads []*workloadReport `json:"workloads"`
		}{env, o.seed, endToEnd, reports}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.history != "" && o.timed {
		if err := appendHistory(o.history, env, reports); err != nil {
			return err
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "macebench: %v\n", err)
		os.Exit(1)
	}
}
