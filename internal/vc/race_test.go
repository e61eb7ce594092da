//go:build race

package vc

// raceEnabled reports a -race build. The race detector's instrumentation
// distorts the clock, so timing bounds only log there.
const raceEnabled = true
