//go:build race

package blockcentric_test

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so allocation bounds only log there.
const raceEnabled = true
