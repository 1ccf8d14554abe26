//go:build !race

package bowtie

const raceEnabled = false
