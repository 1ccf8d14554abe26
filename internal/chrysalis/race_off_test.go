//go:build !race

package chrysalis

const raceEnabled = false
