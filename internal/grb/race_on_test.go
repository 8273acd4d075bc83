//go:build race

package grb

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops entries at random, so allocation stops being a repeatable count.
const raceEnabled = true
