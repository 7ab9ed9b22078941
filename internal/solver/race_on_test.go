//go:build race

package solver

// raceEnabled reports that the race detector is on: it makes sync.Pool drop
// items at random, so allocation budgets cannot be asserted under it.
const raceEnabled = true
