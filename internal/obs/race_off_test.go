//go:build !race

package obs_test

const raceEnabled = false
