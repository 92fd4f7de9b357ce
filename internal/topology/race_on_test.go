//go:build race

package topology

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// exact allocation budgets are not checked under it.
const raceEnabled = true
