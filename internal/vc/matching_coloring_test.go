package vc

import (
	"slices"
	"testing"
	"testing/quick"

	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	"vcgraph/internal/seq"
)

// --- Coloring ---

func checkColoring(t *testing.T, g *graph.Graph, res *ColoringResult) {
	t.Helper()
	if !seq.IsProperColoring(g, res.Colors) {
		t.Fatal("not a proper coloring")
	}
	// Per-phase MIS property: every vertex colored c' must, for each
	// color c < c', have a neighbor colored c (else the phase-c MIS was
	// not maximal over the then-uncolored vertices).
	for v := range g.Out {
		for c := 0; c < res.Colors[v]; c++ {
			found := false
			for _, e := range g.Out[v] {
				if res.Colors[e.Dst] == c {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("vertex %d (color %d) has no neighbor with color %d: phase-%d set was not maximal",
					v, res.Colors[v], c, c)
			}
		}
	}
}

func TestColoringMIS(t *testing.T) {
	cases := map[string]*graph.Graph{
		"random":   graph.Random(200, 600, 3),
		"path":     graph.Path(100),
		"complete": graph.Complete(15),
		"star":     graph.Star(30),
		"cycle":    graph.Cycle(31),
		"isolated": graph.New(12, false),
		"grid":     graph.Grid(9, 9),
	}
	for name, g := range cases {
		g := g
		t.Run(name, func(t *testing.T) {
			res, err := ColoringMIS(g, Config{Workers: 4, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			checkColoring(t, g, res)
		})
	}
}

func TestColoringCompleteGraphUsesNColors(t *testing.T) {
	res, err := ColoringMIS(graph.Complete(12), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 12 {
		t.Fatalf("K = %d, want 12 on K_12 (the paper's worst case K = O(n))", res.K)
	}
}

func TestColoringDeterministicAcrossWorkers(t *testing.T) {
	g := graph.Random(150, 400, 7)
	a, err := ColoringMIS(g, Config{Workers: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ColoringMIS(g, Config{Workers: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatalf("vertex %d colored %d vs %d depending on workers", v, a.Colors[v], b.Colors[v])
		}
	}
}

func TestColoringQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(60, 150, seed)
		res, err := ColoringMIS(g, Config{Workers: 2, Seed: seed})
		if err != nil {
			return false
		}
		return seq.IsProperColoring(g, res.Colors)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- Maximum weight matching ---

func TestMaxWeightMatchingEqualsGreedyDistinctWeights(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := graph.Random(150, 500, seed)
		graph.RandomWeights(g, seed+40)
		res, err := MaxWeightMatching(g, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		var ops seq.Ops
		want, wantW := seq.GreedyMaxWeightMatching(g, &ops)
		if !almostEqual(res.Weight, wantW, 1e-12) {
			t.Fatalf("seed %d: weight %v, want %v", seed, res.Weight, wantW)
		}
		for v := range want {
			if res.Match[v] != want[v] {
				t.Fatalf("seed %d vertex %d: vc=%d greedy=%d", seed, v, res.Match[v], want[v])
			}
		}
	}
}

func TestMaxWeightMatchingMaximal(t *testing.T) {
	g := graph.Random(120, 300, 8)
	graph.RandomWeights(g, 13)
	res, err := MaxWeightMatching(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.IsMaximalMatching(g, res.Match) {
		t.Fatal("matching not maximal")
	}
}

func TestMaxWeightMatchingHalfApprox(t *testing.T) {
	// Against the PGA baseline both are 1/2-approximations; the greedy
	// one (== VC result) is never worse than half of twice PGA... just
	// sanity-check both are valid and within 2x of each other.
	g := graph.Random(100, 400, 4)
	graph.RandomWeights(g, 91)
	res, err := MaxWeightMatching(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ops seq.Ops
	_, pgaW := seq.MaxWeightMatchingPGA(g, &ops)
	if res.Weight*2 < pgaW || pgaW*2 < res.Weight {
		t.Fatalf("weights implausibly far apart: vc=%v pga=%v", res.Weight, pgaW)
	}
}

func TestMaxWeightMatchingEmptyAndTiny(t *testing.T) {
	res, err := MaxWeightMatching(graph.New(3, false), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Match {
		if m != graph.NoVertex {
			t.Fatal("match on empty graph")
		}
	}
	g := graph.Path(2)
	res, err = MaxWeightMatching(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Match[0] != 1 || res.Match[1] != 0 {
		t.Fatalf("P2 match = %v", res.Match)
	}
}

func TestMaxWeightMatchingQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(50, 120, seed)
		graph.RandomWeights(g, seed+7)
		res, err := MaxWeightMatching(g, Config{Workers: 3})
		if err != nil {
			return false
		}
		var ops seq.Ops
		_, wantW := seq.GreedyMaxWeightMatching(g, &ops)
		return almostEqual(res.Weight, wantW, 1e-9) && seq.IsMaximalMatching(g, res.Match)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- Bipartite matching ---

func TestBipartiteMatchingMaximal(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		g := graph.RandomBipartite(80, 70, 400, seed)
		res, err := BipartiteMatching(g, 80, Config{Workers: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !seq.IsMaximalMatching(g, res.Match) {
			t.Fatalf("seed %d: not a maximal matching", seed)
		}
		// Matches must respect sides.
		for v, m := range res.Match {
			if m != graph.NoVertex && (v < 80) == (int(m) < 80) {
				t.Fatalf("match (%d,%d) within one side", v, m)
			}
		}
	}
}

// TestBipartiteMatchingPlacementFree: the grant and accept draws pick
// from sorted candidates, so neither the matching nor its superstep
// count depends on inbox order, which follows the placement.
func TestBipartiteMatchingPlacementFree(t *testing.T) {
	g := graph.RandomBipartite(128, 128, 1024, 14)
	want, err := BipartiteMatching(g, 128, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Workers: 2},
		{Workers: 4, Partition: pregel.PartitionHash},
		{Workers: 3, Partition: pregel.PartitionRange},
	} {
		got, err := BipartiteMatching(g, 128, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Match, want.Match) || got.Stats.NumSupersteps() != want.Stats.NumSupersteps() {
			t.Errorf("W=%d: matching or superstep count (%d) differs from one worker's (%d)",
				cfg.Workers, got.Stats.NumSupersteps(), want.Stats.NumSupersteps())
		}
	}
}

func TestBipartiteMatchingPerfectOnCompleteBipartite(t *testing.T) {
	g := graph.RandomBipartite(20, 20, 400, 1) // complete K_{20,20}
	res, err := BipartiteMatching(g, 20, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v, m := range res.Match {
		if m == graph.NoVertex {
			t.Fatalf("vertex %d unmatched in complete bipartite graph", v)
		}
	}
}

func TestBipartiteMatchingRejectsNonBipartite(t *testing.T) {
	if _, err := BipartiteMatching(graph.Cycle(5), 2, Config{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestBipartiteMatchingSizeComparableToGreedy(t *testing.T) {
	g := graph.RandomBipartite(100, 100, 500, 9)
	res, err := BipartiteMatching(g, 100, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ops seq.Ops
	greedy := seq.GreedyBipartiteMatching(g, 100, &ops)
	gSize := 0
	vSize := 0
	for v := 0; v < 100; v++ {
		if greedy[v] != graph.NoVertex {
			gSize++
		}
		if res.Match[v] != graph.NoVertex {
			vSize++
		}
	}
	// Two maximal matchings are within a factor 2 of each other.
	if 2*vSize < gSize || 2*gSize < vSize {
		t.Fatalf("sizes implausible: vc=%d greedy=%d", vSize, gSize)
	}
}
