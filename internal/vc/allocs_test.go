package vc

import (
	"runtime"
	"testing"

	"vcgraph/internal/blockcentric"
	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
)

// TestPregelRunAllocsIndependentOfN: pregel's message path allocates
// nothing per vertex, so a run's mallocs per superstep do not grow
// with n. Push SSSP on a grid exercises the combiner slots; k-core on
// R-MAT has no combiner and exercises the counting-sorted slabs. The
// bounds sit about four times above the counts measured at n = 2^14
// (4 and 10); a layout that allocated one inbox per receiving vertex
// read 68 and 2,100 there, and 131 and 9,200 at n = 2^16. Race
// instrumentation changes what allocates, so a race build only logs.
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
// bounded number of bytes per vertex with or without two GC cycles
// before it: its work list is walked in place and its inboxes fold one
// value per recipient. At n = 160,000 this reads about 52 bytes per
// vertex either way (75 after the collections while a sync.Pool held
// the block buffers); a work list resliced from the front and regrown
// on every wrap read 290 and 310. PageRank on R-MAT, run cold, folds
// every share on arrival, so its mallocs per superstep — prepare
// included — stay small: about 16–20 on the run-buffer cache, 30–36
// while the lanes regrew; one allocation per message or receiving
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

// TestRunBuffersSurviveGC: a collection does not empty the run-buffer
// cache, so a run made after two runtime.GC() calls — as the benchmark
// and the daemon leave the heap — finds the buffers an earlier run
// grew. On R-MAT n = 2^15 at W = 2, block-centric PageRank allocates
// within 10 % of its warm bytes (22.6 MiB cold against 1.5 MiB warm
// while a collection emptied its buffers), and pregel k-core at most
// 12 MiB (40.7 MiB while every run regrew its mailbox lanes; about
// 7.8 MiB on the cache, the rest prepare-sized arrays).
func TestRunBuffersSurviveGC(t *testing.T) {
	g := graph.RMAT(15, 250000, 1)
	allocated := func(cold bool, run func() error) float64 {
		if err := run(); err != nil { // grows the buffers
			t.Fatal(err)
		}
		if cold {
			runtime.GC()
			runtime.GC()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	}
	pagerank := func() error {
		_, err := blockcentric.PageRank(g, 0.85, 10, blockcentric.Config{Workers: 2})
		return err
	}
	warm, cold := allocated(false, pagerank), allocated(true, pagerank)
	t.Logf("block-centric PageRank: %.2f MiB cold, %.2f MiB warm", cold, warm)
	if cold > 1.1*warm {
		t.Errorf("block-centric PageRank allocates %.2f MiB after two collections, want within 10%% of its %.2f MiB warm", cold, warm)
	}
	kcore := func() error {
		_, err := KCore(g, Config{Workers: 2})
		return err
	}
	cold = allocated(true, kcore)
	t.Logf("pregel k-core: %.2f MiB cold", cold)
	if cold > 12 {
		t.Errorf("pregel k-core allocates %.2f MiB after two collections, want at most 12", cold)
	}
}

// TestWarmRunBytesPerVertex: a run leases every per-vertex working
// array from the run-buffer cache, so a warm run allocates little more
// than the values it returns, even after two collections. The second
// SSSP run on an unweighted Grid(400, 400) at W = 2 must allocate at
// most 32 bytes per vertex on pregel, gas, async and block-centric;
// while the working arrays were made per run they read 119, 57, 76
// and 51. A race build only logs.
func TestWarmRunBytesPerVertex(t *testing.T) {
	g := graph.Grid(400, 400)
	const bound = 32
	for _, engine := range []string{plan.EnginePregel, plan.EngineGAS, plan.EngineAsync, plan.EngineBlockcentric} {
		row := Matrix[Key{"sssp", engine}]
		env := Env{Config: Config{Workers: LeaseShare(engine, 2)}}
		var m0, m1 runtime.MemStats
		for run := 0; run < 2; run++ {
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&m0)
			if _, _, err := row(g, Args{Src: 0}, env)(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
		}
		per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(g.N())
		t.Logf("%s: %.1f bytes per vertex on the second run", engine, per)
		if per > bound && !raceEnabled {
			t.Errorf("%s: %.1f bytes per vertex on the second SSSP run, want at most %d", engine, per, bound)
		}
	}
}
