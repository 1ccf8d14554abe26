//go:build !race

package butterfly

const raceEnabled = false
