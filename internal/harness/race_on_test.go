//go:build race

package harness

// raceEnabled: the race detector adds allocations of its own, so exact
// allocation budgets are not checked under it.
const raceEnabled = true
