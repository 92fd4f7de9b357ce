//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop items at random and
// adds allocations of its own, so exact allocation budgets are not checked
// under it.
const raceEnabled = true
