package scenario

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// recordingExec records what fires; failAt > 0 makes the failAt-th Apply
// fail with errBoom (after recording it).
type recordingExec struct {
	events []string
	failAt int
}

var errBoom = errors.New("boom")

func (r *recordingExec) Apply(op Op) error {
	r.events = append(r.events, fmt.Sprintf("op:%s@%s", op.Kind, op.At))
	if len(r.events) == r.failAt {
		return errBoom
	}
	return nil
}
func (r *recordingExec) SettleEnd()      { r.events = append(r.events, "settle") }
func (r *recordingExec) PhaseEnd(pi int) { r.events = append(r.events, fmt.Sprintf("phase:%d", pi)) }

// TestWallRunnerOrder compresses a small scenario heavily and checks the
// wall-clock backend fires ops and boundaries in the virtual engine's
// order: setup ops, settle, each phase's ops then its end marker.
func TestWallRunnerOrder(t *testing.T) {
	s := &Scenario{
		Name:     "wall-order",
		Seed:     5,
		Nodes:    3,
		Protocol: "chord",
		Settle:   Duration(2 * time.Second),
		Drain:    Duration(500 * time.Millisecond),
		Phases: []Phase{
			{
				Name:     "one",
				Duration: Duration(2 * time.Second),
				Events:   []Event{{At: Duration(time.Second), Kind: EvKill, Node: 1}},
			},
			{
				Name:     "two",
				Duration: Duration(2 * time.Second),
				Events:   []Event{{At: Duration(time.Second), Kind: EvRevive, Node: 1}},
			},
		},
	}
	sched, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingExec{}
	start := time.Now()
	if err := NewWallRunner(sched, 50, rec).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 6.5 virtual seconds at 50x is 130ms; the runner must compress.
	if elapsed > 2*time.Second {
		t.Fatalf("50x run took %v", elapsed)
	}
	want := []string{
		"op:spawn@0s", "op:spawn@0s", "op:spawn@0s",
		"settle",
		"op:kill@3s", "phase:0",
		"op:revive@5s", "phase:1",
	}
	if len(rec.events) != len(want) {
		t.Fatalf("events = %v, want %v", rec.events, want)
	}
	for i := range want {
		if rec.events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (all: %v)", i, rec.events[i], want[i], rec.events)
		}
	}
}

// TestWallRunnerCancel: a cancelled context aborts the run promptly.
func TestWallRunnerCancel(t *testing.T) {
	s := &Scenario{
		Name: "wall-cancel", Seed: 5, Nodes: 2, Protocol: "chord",
		Settle: Duration(time.Hour),
		Phases: []Phase{{Name: "p", Duration: Duration(time.Hour)}},
	}
	sched, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(50 * time.Millisecond); cancel() }()
	start := time.Now()
	if err := NewWallRunner(sched, 1, &recordingExec{}).Run(ctx); err == nil {
		t.Fatal("cancelled run returned nil")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not abort promptly")
	}
}

// TestWallRunnerStopsAtFirstError: the k-th op fails (an agent that would not
// launch); Run returns that error at once, naming the op, and applies nothing
// after it — the hour-long remainder of the schedule never runs.
func TestWallRunnerStopsAtFirstError(t *testing.T) {
	s := &Scenario{
		Name: "wall-fail", Seed: 5, Nodes: 4, Protocol: "chord",
		Settle: Duration(time.Hour),
		Phases: []Phase{{Name: "p", Duration: Duration(time.Hour)}},
	}
	sched, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingExec{failAt: 2}
	start := time.Now()
	err = NewWallRunner(sched, 1, rec).Run(context.Background())
	if !errors.Is(err, errBoom) {
		t.Fatalf("Run = %v, want the executor's error wrapped", err)
	}
	if want := "spawn node 1 at 0s"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the op (%q)", err, want)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("Run did not return promptly")
	}
	if want := []string{"op:spawn@0s", "op:spawn@0s"}; fmt.Sprint(rec.events) != fmt.Sprint(want) {
		t.Errorf("events = %v, want %v: ops were applied after the failure", rec.events, want)
	}
}
