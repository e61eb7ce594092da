package blockcentric_test

import (
	"runtime"
	"testing"
	"testing/quick"
	. "vcgraph/internal/blockcentric"

	"vcgraph/internal/graph"
	"vcgraph/internal/seq"
	"vcgraph/internal/vc"
)

func TestBlockCCMatchesBFS(t *testing.T) {
	cases := map[string]*graph.Graph{
		"random":       graph.Random(300, 600, 3),
		"path":         graph.Path(256),
		"disconnected": graph.Random(200, 120, 7),
		"star":         graph.Star(64),
		"grid":         graph.Grid(12, 12),
		"isolated":     graph.New(9, false),
	}
	for name, g := range cases {
		g := g
		t.Run(name, func(t *testing.T) {
			for _, blocks := range []int{1, 3, 8} {
				res, err := ConnectedComponents(g, Config{Workers: blocks})
				if err != nil {
					t.Fatal(err)
				}
				var ops seq.Ops
				want := seq.Components(g, &ops)
				for v := range want {
					if res.Color[v] != want[v] {
						t.Fatalf("blocks=%d vertex %d: got %d want %d", blocks, v, res.Color[v], want[v])
					}
				}
			}
		})
	}
}

func TestBlockCCQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(80, 110, seed)
		res, err := ConnectedComponents(g, Config{Workers: 5})
		if err != nil {
			return false
		}
		var ops seq.Ops
		want := seq.Components(g, &ops)
		for v := range want {
			if res.Color[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockCentricBeatsVertexCentricOnSupersteps is the conclusion's
// claim measured: on a path, vertex-centric Hash-Min needs Θ(n)
// supersteps while the block-centric version needs Θ(B).
func TestBlockCentricBeatsVertexCentricOnSupersteps(t *testing.T) {
	g := graph.Path(2048)
	bc, err := ConnectedComponents(g, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	vcRes, err := vc.HashMinCC(g, vc.Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if bcSS, vcSS := bc.Stats.NumSupersteps(), vcRes.Stats.NumSupersteps(); bcSS*20 > vcSS {
		t.Fatalf("block-centric %d supersteps vs vertex-centric %d: expected >20x gap", bcSS, vcSS)
	}
	// And the boundary-only message volume is far below Hash-Min's.
	if bc.Stats.TotalMessages*10 > vcRes.Stats.TotalMessages {
		t.Fatalf("block-centric messages %d vs vertex-centric %d: expected >10x gap",
			bc.Stats.TotalMessages, vcRes.Stats.TotalMessages)
	}
}

func TestBlockCountOneIsSequential(t *testing.T) {
	g := graph.RandomConnected(500, 1200, 5)
	res, err := ConnectedComponents(g, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A single block resolves any graph in two supersteps (compute +
	// quiescence detection).
	if res.Stats.NumSupersteps() > 2 {
		t.Fatalf("single block took %d supersteps", res.Stats.NumSupersteps())
	}
}

func TestBlockEngineSuperstepCap(t *testing.T) {
	g := graph.Path(64)
	_, err := ConnectedComponents(g, Config{Workers: 16, MaxSupersteps: 2})
	if err == nil {
		t.Fatal("expected superstep cap error")
	}
}

func TestBlockPartitionCustom(t *testing.T) {
	g := graph.Path(40)
	interleaved := func(g *graph.Graph, workers int) []int32 {
		o := make([]int32, g.N())
		for v := range o {
			o[v] = int32(v % workers)
		}
		return o
	}
	res, err := ConnectedComponents(g, Config{Workers: 4, Partition: interleaved})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range res.Color {
		if c != 0 {
			t.Fatalf("vertex %d label %d", v, c)
		}
	}
}

func TestBlockCCStatsShape(t *testing.T) {
	g := graph.Path(100)
	res, err := ConnectedComponents(g, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Workers != 4 {
		t.Fatalf("workers = %d", st.Workers)
	}
	if st.NumSupersteps() == 0 || st.TotalWork == 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	// Boundary-only messages: a path in 4 contiguous blocks has 3
	// boundary edges; each label push crosses one.
	if st.TotalMessages > 20 {
		t.Fatalf("messages = %d; expected boundary-only traffic", st.TotalMessages)
	}
}

func TestBlockCountExceedingVertices(t *testing.T) {
	g := graph.Path(3)
	res, err := ConnectedComponents(g, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range res.Color {
		if c != 0 {
			t.Fatalf("vertex %d label %d", v, c)
		}
	}
}

func TestBlockCCWeightedLabelsIgnoreWeights(t *testing.T) {
	g := graph.RandomConnected(60, 150, 9)
	graph.RandomWeights(g, 10)
	res, err := ConnectedComponents(g, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Color {
		if c != 0 {
			t.Fatalf("connected graph split: %v", c)
		}
	}
}

// TestBlockSuperstepAllocs: a steady-state block-centric PageRank
// superstep allocates almost nothing — the inboxes, lanes and
// contexts are reused, so the per-superstep cost is the
// driver's stat record, not a map or slice per block or vertex. The
// difference between a 20- and a 10-iteration run isolates ten
// steady-state supersteps from prepare and first-superstep growth. The
// lanes come from the run-buffer cache, which drops nothing at random,
// so the bound holds under -race too.
func TestBlockSuperstepAllocs(t *testing.T) {
	g := graph.RMAT(12, 40000, 1)
	mallocs := func(k, blocks int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := PageRank(g, 0.85, k, Config{Workers: blocks}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	for _, blocks := range []int{2, 4} {
		mallocs(10, blocks) // warm the buffer pools and the run scheduler
		per := (float64(mallocs(20, blocks)) - float64(mallocs(10, blocks))) / 10
		t.Logf("blocks=%d: %.1f allocs per steady-state superstep", blocks, per)
		if per > float64(2*blocks) {
			t.Errorf("blocks=%d: %.1f allocs per steady-state superstep, want at most %d", blocks, per, 2*blocks)
		}
	}
}
