package vc

import (
	"runtime"
	"testing"

	"vcgraph/internal/blockcentric"
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

// TestBlockRunAllocs holds the block-centric engine's run to prepare-
// sized memory. SSSP's second run on a weighted grid must allocate a
// bounded number of bytes per vertex whether or not the pooled block
// buffers survived (two GC cycles empty the pool): its work list is
// walked in place and its inboxes fold one value per recipient. At
// n = 160,000 this reads about 50 bytes per vertex warm and 75 cold;
// a work list resliced from the front and regrown on every wrap read
// 290 and 310. PageRank on R-MAT, run cold, folds every share on
// arrival, so its mallocs per superstep — prepare and the lanes'
// regrowth included — grow only with the lanes' doublings: about 30
// at n = 2^14 and 36 at 2^16; one allocation per message or receiving
// vertex would read thousands. A race build only logs.
func TestBlockRunAllocs(t *testing.T) {
	g := graph.Grid(400, 400)
	graph.RandomWeights(g, 10)
	const bytesBound = 150
	for _, cold := range []bool{false, true} {
		var m0, m1 runtime.MemStats
		for run := 0; run < 2; run++ {
			if cold {
				runtime.GC()
				runtime.GC()
			}
			runtime.ReadMemStats(&m0)
			if _, err := blockcentric.SSSP(g, 0, blockcentric.Config{Workers: 2}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
		}
		per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(g.N())
		t.Logf("sssp-grid cold=%v: %.1f bytes per vertex", cold, per)
		if per > bytesBound && !raceEnabled {
			t.Errorf("sssp-grid cold=%v: %.1f bytes per vertex on the second run, want at most %d", cold, per, bytesBound)
		}
	}
	for _, scale := range []int{14, 16} {
		rmat := graph.RMAT(scale, 8<<scale, 1)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res, err := blockcentric.PageRank(rmat, 0.85, 10, blockcentric.Config{Workers: 2})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		per := float64(m1.Mallocs-m0.Mallocs) / float64(res.Stats.NumSupersteps())
		t.Logf("pagerank-rmat n=2^%d: %.1f mallocs per superstep", scale, per)
		if per > 100 && !raceEnabled {
			t.Errorf("pagerank-rmat n=2^%d: %.1f mallocs per superstep, want at most 100", scale, per)
		}
	}
}
