//go:build !race

package cluster

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
