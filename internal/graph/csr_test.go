package graph

import (
	"fmt"
	"math"
	"testing"
)

// sameWeight compares weights bit for bit: a snapshot copies them
// verbatim, so -0 must stay -0, and a NaN that AddWeightedEdge took
// (the file readers reject it) must round-trip although == never
// matches it.
func sameWeight(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameEdge(a, b Edge) bool { return a.Dst == b.Dst && a.L == b.L && sameWeight(a.W, b.W) }

// checkCSRRoundTrip verifies that a CSR snapshot is a faithful,
// order-preserving image of g: same vertex/edge counts, same degrees,
// entry i of g.Out[v] equals CSR entry Offsets[v]+i (destination,
// weight, label), and the transpose matches Graph.In entry for entry.
// This is the contract the engines rely on for byte-identical results
// after migrating from [][]Edge iteration to CSR spans.
func checkCSRRoundTrip(t *testing.T, g *Graph) {
	t.Helper()
	c := g.CSR()
	if c.N() != g.N() {
		t.Fatalf("CSR.N = %d, want %d", c.N(), g.N())
	}
	if c.M() != g.M() {
		t.Fatalf("CSR.M = %d, want %d", c.M(), g.M())
	}
	entries := 0
	hasW, hasL := false, false
	for v := range g.Out {
		entries += len(g.Out[v])
		for _, e := range g.Out[v] {
			if e.W != 1 {
				hasW = true
			}
			if e.L != 0 {
				hasL = true
			}
		}
	}
	if c.NumEntries() != entries {
		t.Fatalf("CSR.NumEntries = %d, want %d", c.NumEntries(), entries)
	}
	if (c.Weights != nil) != hasW {
		t.Fatalf("CSR.Weights presence = %v, want %v", c.Weights != nil, hasW)
	}
	if (c.LabelIDs != nil) != hasL {
		t.Fatalf("CSR.LabelIDs presence = %v, want %v", c.LabelIDs != nil, hasL)
	}
	if hasL && c.Labels[0] != "" {
		t.Fatalf("CSR.Labels[0] = %q, want empty string", c.Labels[0])
	}
	for v := 0; v < g.N(); v++ {
		id := VertexID(v)
		adj := g.Out[v]
		if c.OutDegree(id) != len(adj) {
			t.Fatalf("vertex %d: OutDegree = %d, want %d", v, c.OutDegree(id), len(adj))
		}
		out := c.Out(id)
		ws := c.OutWeights(id)
		lo, hi := c.OutRange(id)
		if int(hi-lo) != len(adj) {
			t.Fatalf("vertex %d: OutRange span %d, want %d", v, hi-lo, len(adj))
		}
		for i, e := range adj {
			if out[i] != e.Dst {
				t.Fatalf("vertex %d entry %d: dst %d, want %d", v, i, out[i], e.Dst)
			}
			if w := c.Weight(lo + int32(i)); !sameWeight(w, e.W) {
				t.Fatalf("vertex %d entry %d: weight %v, want %v", v, i, w, e.W)
			}
			if ws != nil && !sameWeight(ws[i], e.W) {
				t.Fatalf("vertex %d entry %d: OutWeights %v, want %v", v, i, ws[i], e.W)
			}
			if l := c.EdgeLabel(lo + int32(i)); l != g.EdgeLabel(e) {
				t.Fatalf("vertex %d entry %d: label %q, want %q", v, i, l, g.EdgeLabel(e))
			}
		}
		// ForEachOut and AppendOutEdges agree with the spans.
		j := 0
		c.ForEachOut(id, func(dst VertexID, w float64) {
			if dst != adj[j].Dst || !sameWeight(w, adj[j].W) {
				t.Fatalf("vertex %d ForEachOut entry %d: (%d, %v), want (%d, %v)",
					v, j, dst, w, adj[j].Dst, adj[j].W)
			}
			j++
		})
		if j != len(adj) {
			t.Fatalf("vertex %d: ForEachOut visited %d entries, want %d", v, j, len(adj))
		}
		mat := c.AppendOutEdges(nil, id)
		if len(mat) != len(adj) {
			t.Fatalf("vertex %d: AppendOutEdges returned %d entries, want %d", v, len(mat), len(adj))
		}
		for i := range mat {
			if !sameEdge(mat[i], adj[i]) {
				t.Fatalf("vertex %d entry %d: AppendOutEdges %+v, want %+v", v, i, mat[i], adj[i])
			}
		}
	}
	// Transpose consistency: same entries as Graph.In (Graph.EnsureIn
	// also iterates sources ascending, so order must match exactly).
	// For undirected graphs Graph.EnsureIn is a no-op and in-adjacency
	// is out-adjacency.
	c.EnsureIn()
	g.EnsureIn()
	inOf := func(v VertexID) []Edge {
		if !g.Directed {
			return g.Out[v]
		}
		return g.In[v]
	}
	for v := 0; v < g.N(); v++ {
		id := VertexID(v)
		inAdj := inOf(id)
		if c.InDegree(id) != len(inAdj) {
			t.Fatalf("vertex %d: InDegree = %d, want %d", v, c.InDegree(id), len(inAdj))
		}
		srcs := c.In(id)
		for i, e := range inAdj {
			if srcs[i] != e.Dst {
				t.Fatalf("vertex %d in-entry %d: src %d, want %d", v, i, srcs[i], e.Dst)
			}
		}
		j := 0
		c.ForEachIn(id, func(src VertexID, w float64) {
			if src != inAdj[j].Dst || !sameWeight(w, inAdj[j].W) {
				t.Fatalf("vertex %d ForEachIn entry %d: (%d, %v), want (%d, %v)",
					v, j, src, w, inAdj[j].Dst, inAdj[j].W)
			}
			j++
		})
		if j != len(inAdj) {
			t.Fatalf("vertex %d: ForEachIn visited %d entries, want %d", v, j, len(inAdj))
		}
		mat := c.AppendInEdges(nil, id)
		if len(mat) != len(inAdj) {
			t.Fatalf("vertex %d: AppendInEdges returned %d entries, want %d", v, len(mat), len(inAdj))
		}
		for i := range mat {
			if !sameEdge(mat[i], inAdj[i]) {
				t.Fatalf("vertex %d in-entry %d: AppendInEdges %+v, want %+v", v, i, mat[i], inAdj[i])
			}
		}
	}
}

// TestCSRRoundTripGenerators runs the round-trip check over every
// generator family, including weighted and labeled variants.
func TestCSRRoundTripGenerators(t *testing.T) {
	alphabet := []string{"a", "b", "c"}
	cases := []struct {
		name  string
		build func() *Graph
	}{
		{"empty", func() *Graph { return New(0, false) }},
		{"isolated", func() *Graph { return New(5, false) }},
		{"path", func() *Graph { return Path(17) }},
		{"permuted-path", func() *Graph { return PermutedPath(40, 7) }},
		{"cycle", func() *Graph { return Cycle(12) }},
		{"complete", func() *Graph { return Complete(9) }},
		{"grid", func() *Graph { return Grid(6, 7) }},
		{"star", func() *Graph { return Star(15) }},
		{"random", func() *Graph { return Random(60, 200, 1) }},
		{"random-connected", func() *Graph { return RandomConnected(50, 120, 2) }},
		{"random-directed", func() *Graph { return RandomDirected(50, 300, 3) }},
		{"preferential-attachment", func() *Graph { return PreferentialAttachment(80, 4, 4) }},
		{"sbm", func() *Graph { return StochasticBlockModel(60, 3, 0.3, 0.02, 5) }},
		{"watts-strogatz", func() *Graph { return WattsStrogatz(50, 4, 0.2, 6) }},
		{"random-tree", func() *Graph { return RandomTree(70, 7) }},
		{"binary-tree", func() *Graph { return BalancedBinaryTree(31) }},
		{"caterpillar", func() *Graph { return CaterpillarTree(24) }},
		{"bipartite", func() *Graph { return RandomBipartite(20, 30, 90, 8) }},
		{"weighted", func() *Graph {
			g := Random(50, 150, 9)
			RandomWeights(g, 10)
			return g
		}},
		{"weighted-directed", func() *Graph {
			g := RandomDirected(40, 200, 11)
			RandomWeights(g, 12)
			return g
		}},
		{"labeled", func() *Graph {
			g := Random(50, 150, 13)
			RandomLabels(g, alphabet, 14)
			return g
		}},
		{"weighted-labeled-directed", func() *Graph {
			g := RandomDirected(40, 200, 15)
			RandomWeights(g, 16)
			RandomLabels(g, alphabet, 17)
			return g
		}},
		{"edge-labeled", func() *Graph {
			return withEdgeLabels(Random(50, 150, 18), []string{"", "x", "y"}, 19)
		}},
		{"edge-labeled-directed", func() *Graph { return labeledGraph(true) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkCSRRoundTrip(t, tc.build())
		})
	}
}

// TestCSRCacheInvalidation checks that Graph.CSR caches the snapshot
// and that every mutation path rebuilds it.
func TestCSRCacheInvalidation(t *testing.T) {
	g := Random(20, 40, 1)
	c1 := g.CSR()
	if g.CSR() != c1 {
		t.Fatal("CSR not cached across calls without mutation")
	}
	g.AddEdge(0, 19)
	c2 := g.CSR()
	if c2 == c1 {
		t.Fatal("CSR cache not invalidated by AddEdge")
	}
	if c2.NumEntries() != c1.NumEntries()+2 {
		t.Fatalf("rebuilt CSR has %d entries, want %d", c2.NumEntries(), c1.NumEntries()+2)
	}
	RandomWeights(g, 2)
	c3 := g.CSR()
	if c3 == c2 {
		t.Fatal("CSR cache not invalidated by RandomWeights")
	}
	if c3.Weights == nil {
		t.Fatal("rebuilt CSR missing weights after RandomWeights")
	}
	g.SortAdjacency()
	if g.CSR() == c3 {
		t.Fatal("CSR cache not invalidated by SortAdjacency")
	}
	checkCSRRoundTrip(t, g)
}

// TestCSRLabelInterning checks that labels are interned to a compact
// table rather than stored per entry.
func TestCSRLabelInterning(t *testing.T) {
	g := withEdgeLabels(Complete(20), []string{"x", "y"}, 1)
	c := g.CSR()
	if len(c.Labels) > 3 { // "" + at most two distinct labels
		t.Fatalf("interned label table has %d entries, want <= 3", len(c.Labels))
	}
	checkCSRRoundTrip(t, g)
}

// TestAddLabeledEdgeRange checks the out-of-range panic contract.
func TestAddLabeledEdgeRange(t *testing.T) {
	for _, tc := range []struct{ u, v VertexID }{{-1, 0}, {0, -1}, {5, 0}, {0, 5}} {
		t.Run(fmt.Sprintf("%d-%d", tc.u, tc.v), func(t *testing.T) {
			g := New(5, false)
			defer func() {
				if recover() == nil {
					t.Fatalf("AddLabeledEdge(%d, %d) did not panic", tc.u, tc.v)
				}
			}()
			g.AddLabeledEdge(tc.u, tc.v, 1, "")
		})
	}
}

// FuzzCSRBuild fuzzes the CSR build + transpose against the mutable
// builder: random generator parameters, optional weights and labels,
// full round-trip check.
func FuzzCSRBuild(f *testing.F) {
	f.Add(0, 0, int64(1), false, false, false)
	f.Add(20, 50, int64(2), true, false, false)
	f.Add(30, 100, int64(3), false, true, true)
	f.Add(50, 400, int64(4), true, true, false)
	f.Add(7, 3, int64(5), true, false, true)
	f.Fuzz(func(t *testing.T, n, m int, seed int64, directed, weighted, labeled bool) {
		n, m = clamp(n, 150), clamp(m, 1500)
		var g *Graph
		if directed {
			g = RandomDirected(n, m, seed)
		} else {
			g = Random(n, m, seed)
		}
		if weighted {
			RandomWeights(g, seed+1)
		}
		if labeled {
			RandomLabels(g, []string{"a", "b", "c", "d"}, seed+2)
			g = withEdgeLabels(g, []string{"", "p", "q"}, seed+3)
		}
		checkCSRRoundTrip(t, g)
	})
}
