package repo

import (
	"fmt"
	"os"
	"strings"
)

// Probe is a one-line edit of specs/randtree.mac that still parses but must
// not translate, with the positioned error the translator reports for it.
type Probe struct {
	Line     int
	Old, New string // New replaces the first Old on the line
	Err      string // "line:col: message"
}

// RandtreeProbes are the edits `macedon check` once accepted although `gen`
// failed on them, wrote a package that did not build, or wrote one that
// panicked when run: a primitive the translator does not know, too few or
// too many arguments, a name the spec does not declare, and a builtin or
// field() the transition does not bind.
var RandtreeProbes = []Probe{
	{61, "neighbor_random(kids)", "neighbour_random(kids)", `61:9: unknown primitive "neighbour_random"`},
	{63, "neighbor_add(kids, from)", "neighbor_add(kids)", "63:9: neighbor_add takes 2 arguments, not 1"},
	{63, "neighbor_add(kids, from)", "neighbor_add(kidz, from)", "63:9: neighbor_add of kidz, which is not a declared neighbor list"},
	{90, "send join(root)", "send join(rooot)", `90:5: unknown identifier "rooot"`},
	{90, "send join(root)", "send join(field(src))", "90:5: field() outside a message transition"},
	{61, "neighbor_random(kids)", "neighbor_random(kids, from)", "61:9: neighbor_random takes 1 arguments, not 2"},
	{91, "timer_sched(rejoin, 3000)", "timer_sched(rejoin, 3000, 5, 7)", "91:5: timer_sched takes 1 to 3 arguments, not 4"},
	{90, "send join(root)", "send join(from)", "90:5: from outside a recv or forward transition"},
	{91, "timer_sched(rejoin, 3000)", "timer_sched(rejoinn, 3000)", "91:5: timer_sched of rejoinn, which is not a declared timer"},
	{91, "timer_sched(rejoin, 3000)", "state_change(joind)", "91:5: state_change of joind, which is not a declared state"},
}

// Apply returns specs/randtree.mac with the probe's edit made.
func (p Probe) Apply() (string, error) {
	src, err := os.ReadFile(Path("specs", "randtree.mac"))
	if err != nil {
		return "", err
	}
	lines := strings.Split(string(src), "\n")
	if p.Line < 1 || p.Line > len(lines) || !strings.Contains(lines[p.Line-1], p.Old) {
		return "", fmt.Errorf("randtree.mac line %d does not contain %q", p.Line, p.Old)
	}
	lines[p.Line-1] = strings.Replace(lines[p.Line-1], p.Old, p.New, 1)
	return strings.Join(lines, "\n"), nil
}
