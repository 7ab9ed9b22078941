//go:build race

package obs_test

// raceEnabled reports that the race detector is on: it makes sync.Pool drop
// items at random, so allocation counts cannot be compared under it.
const raceEnabled = true
