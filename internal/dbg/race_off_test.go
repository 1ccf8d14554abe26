//go:build !race

package dbg

const raceEnabled = false
