package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"macedon/internal/metrics"
	"macedon/internal/obs"
)

// runReport implements "macedon report": render the engine time series of a
// machine-readable report (`macedon scenario -json` / `macedon deploy
// -json`) as deterministic per-phase sparkline tables — one report per
// variant of a `macedon sweep -json` document — or — with -bench —
// render a performance trajectory: the file macebench's -history flag
// appends one line per commit to (bench/macebench/history.go). Both
// renderings are pure functions of the input file, so they can be diffed
// like any other trace.
func runReport(args []string) int {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	bench := fs.Bool("bench", false, "render a macebench -history file (one JSON document per line, one line per commit) as a per-workload trajectory instead of a report's time series")
	metric := fs.String("metric", "wall_s", "with -bench, the end-to-end metric to chart")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "macedon report: exactly one input file required")
		return 2
	}
	if *bench {
		return reportBench(fs.Arg(0), *metric)
	}
	return reportSeries(fs.Arg(0))
}

// loadReportJSON reads the reports a document holds: a scenario report, the
// live side of a `macedon deploy -json` {live, sim} payload, or every
// variant's report of a `macedon sweep -json` result, in variant order.
func loadReportJSON(path string) ([]*metrics.ReportJSON, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep metrics.ReportJSON
	if err := json.Unmarshal(b, &rep); err == nil && rep.Scenario != "" {
		return []*metrics.ReportJSON{&rep}, nil
	}
	var wrapped struct {
		Live     *metrics.ReportJSON        `json:"live"`
		Variants []metrics.SweepVariantJSON `json:"variants"`
	}
	if err := json.Unmarshal(b, &wrapped); err == nil {
		if wrapped.Live != nil && wrapped.Live.Scenario != "" {
			return []*metrics.ReportJSON{wrapped.Live}, nil
		}
		var reps []*metrics.ReportJSON
		for _, v := range wrapped.Variants {
			if v.Report != nil {
				reps = append(reps, v.Report)
			}
		}
		if len(reps) > 0 {
			return reps, nil
		}
	}
	return nil, fmt.Errorf("%s: not a report JSON (run `macedon scenario -obs -json`, `macedon sweep -obs -json` or `macedon deploy -obs -json`)", path)
}

func reportSeries(path string) int {
	reps, err := loadReportJSON(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "macedon report: %v\n", err)
		return 1
	}
	for i, rep := range reps {
		if i > 0 {
			fmt.Println()
		}
		printSeries(rep)
	}
	return 0
}

// printSeries renders one report's per-phase series tables.
func printSeries(rep *metrics.ReportJSON) {
	fmt.Printf("report %q: protocol %s, %d nodes, %d phases\n", rep.Scenario, rep.Protocol, rep.Nodes, len(rep.Phases))
	plotted := 0
	for pi, p := range rep.Phases {
		if p.Obs == nil || p.Obs.Series == nil || len(p.Obs.Series.Points) == 0 {
			continue
		}
		plotted++
		s := p.Obs.Series
		fmt.Printf("\nphase %d %q series (%d points", pi, p.Name, len(s.Points))
		if s.Dropped > 0 {
			fmt.Printf(", ring dropped %d older", s.Dropped)
		}
		fmt.Printf("):\n")
		if p.OpsSent > 0 {
			// The phase's workload outcome: Figure 11's latency and hops,
			// Figure 12's delivered stream.
			fmt.Printf("  workload: ops=%d delivered=%d mean_latency=%.3fms mean_hops=%.2f\n", p.OpsSent, p.OpsDelivered, p.MeanLatency, p.MeanHops)
		}
		width := len(s.Points)
		fmt.Printf("  %-14s %-*s %12s %12s %12s %12s\n", "column", width, "trend", "first", "last", "min", "max")
		for ci, col := range s.Columns {
			vals := make([]float64, len(s.Points))
			for i, pt := range s.Points {
				vals[i] = pt.Values[ci]
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals[1:] {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			fmt.Printf("  %-14s %-*s %12s %12s %12s %12s\n", col,
				width, obs.Sparkline(vals),
				reportValue(vals[0]), reportValue(vals[len(vals)-1]), reportValue(lo), reportValue(hi))
		}
	}
	if plotted == 0 {
		fmt.Println("no time series in this report (run with -obs; add -series-interval for intra-phase points)")
	}
}

// benchDoc is the part of macebench's historyDoc the trajectory needs
// (decoded here because bench/macebench is a module of its own).
type benchDoc struct {
	Commit  string `json:"commit"`
	Results []struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"results"`
}

func reportBench(path, metric string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "macedon report: %v\n", err)
		return 1
	}
	defer f.Close()
	var docs []benchDoc
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var d benchDoc
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			fmt.Fprintf(os.Stderr, "macedon report: %s: bad history line: %v\n", path, err)
			return 1
		}
		docs = append(docs, d)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "macedon report: %v\n", err)
		return 1
	}
	if len(docs) == 0 {
		fmt.Printf("bench history %s: empty\n", path)
		return 0
	}
	// Chart every benchmark that appears anywhere in the history, in sorted
	// order; runs missing a benchmark contribute no point (the sparkline
	// simply compresses), and first→last delta spans the runs that have it.
	series := make(map[string][]float64)
	for _, d := range docs {
		for _, r := range d.Results {
			if v, ok := r.Metrics[metric]; ok && v > 0 {
				series[r.Name] = append(series[r.Name], v)
			}
		}
	}
	var names []string
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	first, last := docs[0], docs[len(docs)-1]
	fmt.Printf("bench trajectory: %d run(s), %s .. %s, metric %s\n",
		len(docs), shortCommit(first.Commit), shortCommit(last.Commit), metric)
	fmt.Printf("%-52s %-*s %14s %14s %9s\n", "benchmark", len(docs), "trend", "first", "last", "delta")
	for _, name := range names {
		vals := series[name]
		delta := "-"
		if len(vals) > 1 && vals[0] > 0 {
			delta = fmt.Sprintf("%+.1f%%", (vals[len(vals)-1]/vals[0]-1)*100)
		}
		fmt.Printf("%-52s %-*s %14s %14s %9s\n", name,
			len(docs), obs.Sparkline(vals),
			reportValue(vals[0]), reportValue(vals[len(vals)-1]), delta)
	}
	return 0
}

// reportValue prints integral values exactly and the rest compactly — the
// exposition renderer's convention.
func reportValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%g", v)
}

func shortCommit(sha string) string {
	if sha == "" {
		return "?"
	}
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}
