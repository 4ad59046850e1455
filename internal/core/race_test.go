//go:build race

package core

// raceEnabled reports a race-detector build, under which sync.Pool drops
// pooled items at random, so allocation counts are not the program's.
const raceEnabled = true
