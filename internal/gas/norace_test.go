//go:build !race

package gas_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
