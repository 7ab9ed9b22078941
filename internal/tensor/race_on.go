//go:build race

package tensor

// raceEnabled reports that the race detector is on: Arena.Reset poisons
// the memory it recycles, and sync.Pool drops items at random, so reuse
// and allocation counts cannot be asserted.
const raceEnabled = true
