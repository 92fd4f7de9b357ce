package main

import (
	"os"
	"path/filepath"
	"testing"
)

// runCaptured runs one subcommand in process with os.Stdout pointed at a
// file and returns its exit code and what it printed.
func runCaptured(t *testing.T, cmd func([]string) int, args ...string) (int, string) {
	t.Helper()
	var code int
	out := capture(t, &os.Stdout, func() { code = cmd(args) })
	return code, out
}

// capture runs f with *stream pointed at a file and returns what f wrote to
// it.
func capture(t *testing.T, stream **os.File, f func()) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func(saved *os.File) { *stream = saved }(*stream)
		*stream = file
		f()
	}()
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestReportBenchRendersMacebenchHistory pins `macedon report -bench` over
// a two-line history in the shape macebench's -history flag writes. With no
// -metric it charts wall_s; a workload present in only one of the two lines
// (stream_multicast in the first, sweep_fork in the second) charts the one
// point it has and shows no delta.
func TestReportBenchRendersMacebenchHistory(t *testing.T) {
	const want = `bench trajectory: 2 run(s), 4b7b22c0f3a9 .. e647a33, metric wall_s
benchmark                                            trend          first           last     delta
macebench/churn_lookup                               █▁          1.279          0.697    -45.5%
macebench/stream_multicast                           ▁            2.84           2.84         -
macebench/sweep_fork                                 ▁               3              3         -
`
	code, got := runCaptured(t, runReport, "-bench", filepath.Join("testdata", "bench-history.jsonl"))
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if got != want {
		t.Errorf("rendered table:\n%s\nwant:\n%s", got, want)
	}
}
