//go:build !race

package inchworm

const raceEnabled = false
