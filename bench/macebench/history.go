package main

import (
	"bytes"
	"encoding/json"
	"os"
	"time"
)

// The trajectory file shares its document shape with cmd/benchjson, so
// `macedon report -bench` renders both: one compact JSON document per line,
// one line per commit.

type historyResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type historyDoc struct {
	Commit    string          `json:"commit,omitempty"`
	Timestamp time.Time       `json:"timestamp"`
	GoVersion string          `json:"go_version"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	Results   []historyResult `json:"results"`
}

// appendHistory adds this run's end-to-end medians to the trajectory file,
// replacing an earlier line of the same commit.
func appendHistory(path string, env environment, reports []*workloadReport) error {
	doc := historyDoc{Commit: env.Commit, Timestamp: time.Now().UTC(), GoVersion: env.GoVersion, GOOS: env.GOOS, GOARCH: env.GOARCH}
	for _, r := range reports {
		if r.Timed == nil {
			continue
		}
		hr := historyResult{Name: "macebench/" + r.Workload, Iterations: int64(r.Timed.Reps), Metrics: map[string]float64{}}
		for _, m := range endToEnd {
			hr.Metrics[m.Name] = r.Timed.Metrics[m.Name].Median
		}
		doc.Results = append(doc.Results, hr)
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	old, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	var out bytes.Buffer
	for _, l := range bytes.Split(old, []byte("\n")) {
		if len(bytes.TrimSpace(l)) == 0 {
			continue
		}
		var prev struct {
			Commit string `json:"commit"`
		}
		if doc.Commit != "" && json.Unmarshal(l, &prev) == nil && prev.Commit == doc.Commit {
			continue
		}
		out.Write(l)
		out.WriteByte('\n')
	}
	out.Write(line)
	out.WriteByte('\n')
	return os.WriteFile(path, out.Bytes(), 0o644)
}
