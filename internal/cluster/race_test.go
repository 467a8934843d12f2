//go:build race

package cluster

// raceEnabled reports a race-detector build, in which sync.Pool drops
// items at random and allocation counts vary from run to run.
const raceEnabled = true
