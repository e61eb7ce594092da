package gas_test

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"
	. "vcgraph/internal/gas"

	"vcgraph/internal/graph"
	"vcgraph/internal/seq"
	"vcgraph/internal/vc"
)

func TestGASPageRankMatchesPowerIteration(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.PreferentialAttachment(800, 3, 3),
		graph.RandomDirected(400, 1600, 5),
		graph.Cycle(64),
	} {
		ranks, _, err := PageRank(g, 0.85, 1e-12, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		var ops seq.Ops
		want := seq.PageRank(g, 0.85, 300, &ops) // effectively converged
		for v := range want {
			if math.Abs(ranks[v]-want[v]) > 1e-8 {
				t.Fatalf("vertex %d: gas=%v seq=%v", v, ranks[v], want[v])
			}
		}
	}
}

func TestGASAdaptiveSchedulingShrinksWork(t *testing.T) {
	// Delta scheduling: later iterations touch far fewer edges than the
	// first (only un-converged regions stay active).
	g := graph.PreferentialAttachment(3000, 3, 7)
	_, res, err := PageRank(g, 0.85, 1e-8, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 5 {
		t.Fatalf("converged suspiciously fast: %d iterations", res.Iterations)
	}
	first := res.Stats.Supersteps[0]
	last := res.Stats.Supersteps[len(res.Stats.Supersteps)-1]
	var w0, wLast int64
	for w := range first.Work {
		w0 += first.Work[w]
		wLast += last.Work[w]
	}
	if wLast*2 > w0 {
		t.Fatalf("last iteration work %d not below half of first %d: no adaptivity", wLast, w0)
	}
}

func TestGASMatchesPregelPageRank(t *testing.T) {
	// Cross-paradigm agreement: GAS-to-convergence equals
	// Pregel-to-convergence on the same graph.
	g := graph.PreferentialAttachment(500, 2, 9)
	gasRanks, _, err := PageRank(g, 0.85, 1e-12, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pregelRes, _, err := vc.PageRankConverge(g, 0.85, 1e-12, vc.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v := range gasRanks {
		if math.Abs(gasRanks[v]-pregelRes.Ranks[v]) > 1e-8 {
			t.Fatalf("vertex %d: gas=%v pregel=%v", v, gasRanks[v], pregelRes.Ranks[v])
		}
	}
}

func TestGASQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(50, 150, seed)
		ranks, _, err := PageRank(g, 0.85, 1e-12, Config{Workers: 3})
		if err != nil {
			return false
		}
		var ops seq.Ops
		want := seq.PageRank(g, 0.85, 300, &ops)
		for v := range want {
			if math.Abs(ranks[v]-want[v]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGASIterationCap(t *testing.T) {
	g := graph.Cycle(32)
	prog := &neverConverge{}
	if _, err := Run[int, int](g, prog, Config{Workers: 2, MaxSupersteps: 5}); err == nil {
		t.Fatal("expected iteration cap error")
	}
}

type neverConverge struct{}

func (neverConverge) Init(g *graph.Graph, id VertexID) int       { return 0 }
func (neverConverge) Gather(u VertexID, w float64, uVal int) int { return uVal }
func (neverConverge) Zero() int                                  { return 0 }
func (neverConverge) Sum(a, b int) int                           { return a + b }
func (neverConverge) Apply(v *int, total int) bool               { *v++; return true }

func TestGASEmptyGraph(t *testing.T) {
	g := graph.New(0, false)
	ranks, res, err := PageRank(g, 0.85, 1e-9, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 0 || res.Iterations != 0 {
		t.Fatalf("ranks=%v iters=%d", ranks, res.Iterations)
	}
}

func TestGASDeterministicAcrossWorkers(t *testing.T) {
	g := graph.PreferentialAttachment(300, 3, 4)
	a, _, err := PageRank(g, 0.85, 1e-10, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := PageRank(g, 0.85, 1e-10, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("vertex %d: %v vs %v (pull model must be exactly deterministic)", v, a[v], b[v])
		}
	}
}

func TestGASStatsRecordEdgeWork(t *testing.T) {
	g := graph.Cycle(50)
	_, res, err := PageRank(g, 0.85, 1e-9, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Workers != 2 || st.NumSupersteps() != res.Iterations {
		t.Fatalf("stats meta: %+v vs iterations %d", st, res.Iterations)
	}
	// First iteration gathers every edge once (plus one apply per
	// vertex): work >= 2*m_in = 100.
	first := st.Supersteps[0]
	var w int64
	for _, x := range first.Work {
		w += x
	}
	if w < 100 {
		t.Fatalf("first-iteration work %d; expected a full edge sweep", w)
	}
}

func TestGASDanglingVerticesMatchPregelConvention(t *testing.T) {
	// A directed star with all edges inward: the center is dangling.
	g := graph.New(5, true)
	for i := 1; i < 5; i++ {
		g.AddEdge(graph.VertexID(i), 0)
	}
	g.EnsureIn()
	ranks, _, err := PageRank(g, 0.85, 1e-12, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ops seq.Ops
	want := seq.PageRank(g, 0.85, 200, &ops)
	for v := range want {
		if math.Abs(ranks[v]-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: gas=%v seq=%v", v, ranks[v], want[v])
		}
	}
	if ranks[0] <= ranks[1] {
		t.Fatalf("sink should outrank leaves: %v", ranks)
	}
}

// TestGASThinFrontierIndependentOfN: a GAS superstep costs O(active
// vertices + their in-edges), not O(n). SSSP from 0 over a weighted
// path of L vertices beside n-L isolated ones has a frontier of at most
// two vertices for L supersteps. The clock starts at superstep 1, after
// the one superstep that activates all n vertices, and the steady cost
// per superstep is (T(L=400) - T(L=200)) / 200, each T the best of 5
// runs. It must not grow with n. Timing bounds only log under -race.
func TestGASThinFrontierIndependentOfN(t *testing.T) {
	perStep := func(n int) time.Duration {
		best := func(l int) time.Duration {
			g := graph.New(n, false)
			for v := 1; v < l; v++ {
				g.AddWeightedEdge(VertexID(v-1), VertexID(v), float64(1+v%3))
			}
			b := time.Duration(math.MaxInt64)
			for range 5 {
				prog := &clockedSSSP{Program: SSSPProgram(0)}
				runtime.GC() // keep a collection of the last run's garbage out of the clock
				if _, err := Run(g, prog, Config{Workers: 2}); err != nil {
					t.Fatal(err)
				}
				b = min(b, time.Since(prog.start))
			}
			return b
		}
		return (best(400) - best(200)) / 200
	}
	small, large := perStep(1<<10), perStep(1<<18)
	t.Logf("per thin superstep: %v at n=2^10, %v at n=2^18 (%.1fx)", small, large, float64(large)/float64(small))
	if large > 8*small && !raceEnabled {
		t.Errorf("a thin-frontier superstep costs %v at n=2^18 against %v at n=2^10: more than 8x, so it scales with n", large, small)
	}
}

// clockedSSSP notes the time superstep 1 starts.
type clockedSSSP struct {
	Program[float64, float64]
	start time.Time
}

func (c *clockedSSSP) BeforeStep(step int) {
	if step == 1 {
		c.start = time.Now()
	}
}
