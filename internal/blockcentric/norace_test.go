//go:build !race

package blockcentric_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
