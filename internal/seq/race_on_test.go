//go:build race

package seq

// raceEnabled lets the allocation pins skip under the race detector,
// whose instrumentation allocates on its own.
const raceEnabled = true
