//go:build race

package graph

// raceEnabled reports a -race build. The race detector's instrumentation
// changes allocation counts, so allocation bounds only log there.
const raceEnabled = true
