//go:build !race

package graph

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
