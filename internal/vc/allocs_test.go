package vc

import (
	"runtime"
	"testing"

	"vcgraph/internal/graph"
)

// TestPregelRunAllocsIndependentOfN: pregel's message path allocates
// nothing per vertex, so a run's mallocs per superstep do not grow
// with n. Push SSSP on a grid exercises the combiner slots; k-core on
// R-MAT has no combiner and exercises the counting-sorted slabs. The
// bounds sit about four times above the counts measured at n = 2^14
// (4 and 10); a layout that allocated one inbox per receiving vertex
// read 68 and 2,100 there, and 131 and 9,200 at n = 2^16. The span
// scratch comes from a sync.Pool, which drops items at random under
// -race, so a race build only logs.
func TestPregelRunAllocsIndependentOfN(t *testing.T) {
	perStep := func(run func() (int, error)) float64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		steps, err := run()
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return float64(m1.Mallocs-m0.Mallocs) / float64(steps)
	}
	cases := []struct {
		name  string
		bound float64
		run   func(scale int) func() (int, error)
	}{
		{"sssp-grid", 16, func(scale int) func() (int, error) {
			side := 1 << (scale / 2)
			run := PrepareSSSP(graph.Grid(side, side), 0, Config{Workers: 2})
			return func() (int, error) {
				res, err := run()
				if err != nil {
					return 0, err
				}
				return res.Stats.NumSupersteps(), nil
			}
		}},
		{"kcore-rmat", 40, func(scale int) func() (int, error) {
			run := PrepareKCore(graph.RMAT(scale, 8<<scale, 1), Config{Workers: 2})
			return func() (int, error) {
				res, err := run()
				if err != nil {
					return 0, err
				}
				return res.Stats.NumSupersteps(), nil
			}
		}},
	}
	for _, c := range cases {
		for _, scale := range []int{14, 16} {
			per := perStep(c.run(scale))
			t.Logf("%s n=2^%d: %.1f mallocs per superstep", c.name, scale, per)
			if per > c.bound && !raceEnabled {
				t.Errorf("%s n=2^%d: %.1f mallocs per superstep, want at most %.0f", c.name, scale, per, c.bound)
			}
		}
	}
}
