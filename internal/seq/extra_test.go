package seq

import (
	"testing"
	"testing/quick"

	"vcgraph/internal/graph"
)

func TestRadixKruskalMatchesComparisonKruskal(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(50, 140, seed)
		graph.RandomWeights(g, seed+31)
		var o1, o2 Ops
		e1, w1 := MSTKruskal(g, &o1)
		e2, w2 := MSTKruskalRadix(g, &o2)
		if len(e1) != len(e2) || w1 != w2 {
			return false
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRadixKruskalOpsNearLinear(t *testing.T) {
	// The radix baseline must not carry a comparison-sort log factor:
	// ops per edge stay ~constant as m grows 16x.
	mk := func(n int) float64 {
		g := graph.RandomConnected(n, 3*n, 7)
		graph.RandomWeights(g, 8)
		var ops Ops
		MSTKruskalRadix(g, &ops)
		return float64(ops.N) / float64(g.M())
	}
	small, large := mk(1000), mk(16000)
	if large > small*1.3 {
		t.Fatalf("ops/edge grew %v -> %v; radix sort should be linear", small, large)
	}
}

func TestTrianglesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(20, 60, seed)
		var ops Ops
		_, total := Triangles(g, &ops)
		// Brute force over vertex triples.
		adj := map[[2]VertexID]bool{}
		for _, e := range g.UndirectedEdges() {
			adj[[2]VertexID{e.U, e.V}] = true
		}
		has := func(a, b VertexID) bool {
			if a > b {
				a, b = b, a
			}
			return adj[[2]VertexID{a, b}]
		}
		var want int64
		n := g.N()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if !has(VertexID(a), VertexID(b)) {
					continue
				}
				for c := b + 1; c < n; c++ {
					if has(VertexID(a), VertexID(c)) && has(VertexID(b), VertexID(c)) {
						want++
					}
				}
			}
		}
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKCoreKnownValues(t *testing.T) {
	var ops Ops
	for v, c := range KCore(graph.Complete(6), &ops) {
		if c != 5 {
			t.Fatalf("K6 coreness[%d] = %d", v, c)
		}
	}
	for v, c := range KCore(graph.Path(10), &ops) {
		if c != 1 {
			t.Fatalf("path coreness[%d] = %d", v, c)
		}
	}
	for _, c := range KCore(graph.Grid(5, 5), &ops) {
		if c != 2 {
			t.Fatalf("grid coreness %d", c)
		}
	}
	if out := KCore(graph.New(0, false), &ops); len(out) != 0 {
		t.Fatal("empty graph")
	}
}

func TestStreamingCCOrderInvariant(t *testing.T) {
	g := graph.Random(60, 90, 4)
	edges := g.UndirectedEdges()
	var o1, o2 Ops
	fwd := StreamingCC(g.N(), edges, &o1)
	rev := make([]graph.UndirectedEdge, len(edges))
	for i, e := range edges {
		rev[len(edges)-1-i] = e
	}
	bwd := StreamingCC(g.N(), rev, &o2)
	for v := range fwd {
		if fwd[v] != bwd[v] {
			t.Fatalf("stream order changed labels at %d", v)
		}
	}
}

func TestEccentricitiesMatchAPSP(t *testing.T) {
	g := graph.RandomConnected(50, 150, 9)
	var o1, o2 Ops
	ecc := Eccentricities(g, &o1)
	apsp := APSPUnweighted(g, &o2)
	for v := range ecc {
		var mx int32
		for _, d := range apsp[v] {
			if d > mx {
				mx = d
			}
		}
		if ecc[v] != mx {
			t.Fatalf("ecc[%d] = %d, apsp max %d", v, ecc[v], mx)
		}
	}
}

func TestSpanningForestIsForest(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(60, 80, seed)
		var ops Ops
		parent := SpanningForest(g, &ops)
		uf := NewUnionFind(g.N())
		for v, p := range parent {
			if p == graph.NoVertex {
				continue
			}
			if !uf.Union(VertexID(v), p) {
				return false // cycle
			}
		}
		// Forest connects exactly the components.
		comp := Components(g, &ops)
		for v := range comp {
			if uf.Find(VertexID(v)) != uf.Find(comp[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBetweennessWeightedUnitWeightsMatchUnweighted(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomConnected(40, 120, seed) // unit weights
		var o1, o2 Ops
		w := BetweennessWeighted(g, nil, &o1)
		u := Betweenness(g, nil, &o2)
		for v := range u {
			d := w[v] - u[v]
			if d > 1e-7 || d < -1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBetweennessWeightedPath(t *testing.T) {
	// On a weighted path the shortest paths are forced: same closed
	// form as unweighted, bc(i) = 2·i·(n-1-i).
	g := graph.Path(8)
	graph.RandomWeights(g, 3)
	var ops Ops
	bc := BetweennessWeighted(g, nil, &ops)
	for i := 0; i < 8; i++ {
		want := 2 * float64(i) * float64(7-i)
		if d := bc[i] - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("bc[%d] = %v, want %v", i, bc[i], want)
		}
	}
}

func TestBetweennessWeightedRespectsWeights(t *testing.T) {
	// Square with one heavy edge: traffic routes around it, giving the
	// opposite corner all the betweenness.
	g := graph.New(4, false)
	g.AddWeightedEdge(0, 1, 1)
	g.AddWeightedEdge(1, 2, 1)
	g.AddWeightedEdge(2, 3, 1)
	g.AddWeightedEdge(3, 0, 10)
	var ops Ops
	bc := BetweennessWeighted(g, nil, &ops)
	// All 0<->3 traffic goes via 1 and 2.
	if bc[1] <= 0 || bc[2] <= 0 {
		t.Fatalf("bc = %v; route around the heavy edge expected", bc)
	}
	if bc[0] != 0 || bc[3] != 0 {
		t.Fatalf("bc = %v; corners should carry nothing", bc)
	}
}

func TestOpsCountersGrowWithInput(t *testing.T) {
	// Every baseline's operation count must scale with its input: the
	// harness's verdicts depend on counters actually counting.
	small := graph.RandomConnected(100, 300, 3)
	large := graph.RandomConnected(800, 2400, 3)
	checks := []struct {
		name string
		run  func(g *graph.Graph) int64
	}{
		{"bfs", func(g *graph.Graph) int64 { var o Ops; BFS(g, 0, &o); return o.N }},
		{"components", func(g *graph.Graph) int64 { var o Ops; Components(g, &o); return o.N }},
		{"pagerank", func(g *graph.Graph) int64 { var o Ops; PageRank(g, 0.85, 10, &o); return o.N }},
		{"dijkstra", func(g *graph.Graph) int64 { var o Ops; Dijkstra(g, 0, &o); return o.N }},
		{"scc-undirected-ok", func(g *graph.Graph) int64 { var o Ops; SCC(g, &o); return o.N }},
		{"kcore", func(g *graph.Graph) int64 { var o Ops; KCore(g, &o); return o.N }},
		{"bcc", func(g *graph.Graph) int64 { var o Ops; BCC(g, &o); return o.N }},
		{"triangles", func(g *graph.Graph) int64 { var o Ops; Triangles(g, &o); return o.N }},
		{"coloring", func(g *graph.Graph) int64 { var o Ops; ColoringMIS(g, &o); return o.N }},
		{"mst-radix", func(g *graph.Graph) int64 {
			w := g.Clone()
			graph.RandomWeights(w, 5)
			var o Ops
			MSTKruskalRadix(w, &o)
			return o.N
		}},
	}
	for _, c := range checks {
		s, l := c.run(small), c.run(large)
		if s <= 0 || l <= s {
			t.Errorf("%s: ops %d -> %d do not grow", c.name, s, l)
		}
	}
}

func TestHITSPowerIterationConverges(t *testing.T) {
	// More iterations should not change the fixpoint much.
	g := graph.RandomDirected(100, 500, 7)
	var o1, o2 Ops
	h1, a1 := HITS(g, 30, &o1)
	h2, a2 := HITS(g, 60, &o2)
	for v := range h1 {
		if d := h1[v] - h2[v]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("hub[%d] not converged: %v vs %v", v, h1[v], h2[v])
		}
		if d := a1[v] - a2[v]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("auth[%d] not converged", v)
		}
	}
}

func TestPersonalizedPageRankMassConserved(t *testing.T) {
	g := graph.RandomConnected(80, 240, 4)
	var ops Ops
	ppr := PersonalizedPageRank(g, 0, 0.15, 200, &ops)
	var sum float64
	for _, p := range ppr {
		sum += p
	}
	if d := sum - 1; d > 1e-9 || d < -1e-9 {
		t.Fatalf("terminal mass %v", sum)
	}
}

// TestInducedSubgraphKeepsEdgeLabels: strong simulation's ball copy
// carries each edge's label string into the subgraph's own label table.
func TestInducedSubgraphKeepsEdgeLabels(t *testing.T) {
	g := graph.New(6, true)
	labels := []string{"", "knows", "likes", "knows", "", "owns", "likes"}
	for i, l := range labels {
		g.AddLabeledEdge(VertexID(i%6), VertexID((i+2)%6), float64(i+1), l)
	}
	vs := []VertexID{0, 2, 3, 4, 5}
	sub, idx := inducedSubgraph(g, vs)
	type arc struct {
		u, v VertexID
		w    float64
		l    string
	}
	want, got := map[arc]int{}, map[arc]int{}
	for _, u := range vs {
		for _, e := range g.Out[u] {
			if j, ok := idx[e.Dst]; ok {
				want[arc{VertexID(idx[u]), VertexID(j), e.W, g.EdgeLabel(e)}]++
			}
		}
	}
	for u := range sub.Out {
		for _, e := range sub.Out[u] {
			got[arc{VertexID(u), e.Dst, e.W, sub.EdgeLabel(e)}]++
		}
	}
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("subgraph arcs %v, want %v", got, want)
	}
	for a, c := range want {
		if got[a] != c {
			t.Fatalf("subgraph arc %+v seen %d times, want %d", a, got[a], c)
		}
	}
}
