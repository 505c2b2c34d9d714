//go:build race

package distance

// raceEnabled reports that the race detector is active: sync.Pool drops puts
// at random under race instrumentation, so strict zero-allocation assertions
// cannot hold and are skipped.
const raceEnabled = true
