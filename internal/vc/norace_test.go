//go:build !race

package vc

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
