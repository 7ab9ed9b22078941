//go:build !race

package dtrain

const raceEnabled = false
