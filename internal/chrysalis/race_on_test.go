//go:build race

package chrysalis

// raceEnabled lets the allocation pins skip under the race detector,
// whose instrumentation allocates on its own.
const raceEnabled = true
