package graph

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"
)

// withEdgeLabels returns a copy of g whose edges carry labels drawn from
// alphabet (which may hold ""), in g's edge order, with g's weights and
// vertex labels. Directed copies have their in-adjacency built.
func withEdgeLabels(g *Graph, alphabet []string, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	out := New(g.N(), g.Directed)
	out.Labels = g.Labels
	for u := range g.Out {
		for _, e := range g.Out[u] {
			if g.Directed || VertexID(u) <= e.Dst {
				out.AddLabeledEdge(VertexID(u), e.Dst, e.W, alphabet[rng.Intn(len(alphabet))])
			}
		}
	}
	if out.Directed {
		out.EnsureIn()
	}
	return out
}

// labeledGraph is the label-survival input: weighted, with five edge
// labels including "" and a non-ASCII one.
func labeledGraph(directed bool) *Graph {
	g := RandomConnected(60, 200, 7)
	if directed {
		g = RandomDirected(60, 240, 7)
	}
	RandomWeights(g, 8)
	return withEdgeLabels(g, []string{"", "road", "rail", "ferry", "péage"}, 9)
}

type labeledArc struct {
	u, v VertexID
	w    uint64
	l    string
}

// labeledArcs reads g's edges through its snapshot, undirected edges
// once (u <= v), as a multiset of (u, v, weight, label string). For a
// directed graph the snapshot's transpose must hold the same multiset.
func labeledArcs(t *testing.T, g *Graph) map[labeledArc]int {
	t.Helper()
	c := g.CSR()
	out := map[labeledArc]int{}
	var row []Edge
	for u := VertexID(0); int(u) < c.N(); u++ {
		row = c.AppendOutEdges(row[:0], u)
		for _, e := range row {
			if g.Directed || u <= e.Dst {
				out[labeledArc{u, e.Dst, math.Float64bits(e.W), g.EdgeLabel(e)}]++
			}
		}
	}
	if g.Directed {
		c.EnsureIn()
		in := map[labeledArc]int{}
		for v := VertexID(0); int(v) < c.N(); v++ {
			row = c.AppendInEdges(row[:0], v)
			for _, e := range row {
				in[labeledArc{e.Dst, v, math.Float64bits(e.W), g.EdgeLabel(e)}]++
			}
		}
		assertSameArcs(t, "transpose", in, out)
	}
	return out
}

func assertSameArcs(t *testing.T, path string, got, want map[labeledArc]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct labeled arcs, want %d", path, len(got), len(want))
	}
	for a, c := range want {
		if got[a] != c {
			t.Fatalf("%s: arc %d->%d label %q seen %d times, want %d", path, a.u, a.v, a.l, got[a], c)
		}
	}
}

// TestEdgeLabelsSurviveEveryPath carries a labeled graph, undirected and
// directed, through every path that copies or re-encodes its edges and
// requires every edge's label string to come out as it went in.
func TestEdgeLabelsSurviveEveryPath(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := labeledGraph(directed)
		want := labeledArcs(t, g)
		if len(g.edgeLabels) != 5 {
			t.Fatalf("directed=%v: label table %q, want 5 entries", directed, g.edgeLabels)
		}

		assertSameArcs(t, "edge list", labeledArcs(t, roundTrip(t, g)), want)

		order := DegreeOrder(g)
		rl := Relabel(g, order)
		back := map[labeledArc]int{}
		for a, c := range labeledArcs(t, rl) {
			a.u, a.v = order[a.u], order[a.v]
			if !directed && a.u > a.v {
				a.u, a.v = a.v, a.u
			}
			back[a] += c
		}
		assertSameArcs(t, "relabel", back, want)

		for name, c := range map[string]*CSR{
			"BuildCSR":       BuildCSR(g),
			"BuildPackedCSR": BuildPackedCSR(g),
			"CompressCSR":    CompressCSR(BuildCSR(g)),
		} {
			adopted := AdoptCSR(c)
			assertSameArcs(t, name, labeledArcs(t, adopted), want)
		}

		loaded, err := OpenCSRFile(writeTempVCSR(t, g))
		if err != nil {
			t.Fatal(err)
		}
		assertSameArcs(t, "vcsr", labeledArcs(t, loaded), want)
		var saved, orig bytes.Buffer
		if err := WriteEdgeList(&saved, loaded); err != nil {
			t.Fatal(err)
		}
		if err := WriteEdgeList(&orig, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), orig.Bytes()) {
			t.Fatalf("directed=%v: the .vcsr graph saves another edge list", directed)
		}
		loaded.Close()

		mut := g.Clone()
		if directed {
			mut.EnsureIn()
		}
		mut.CSR()
		if _, err := mut.ApplyMutations([]Mutation{{Op: InsertEdge, U: 3, V: 41, W: 2.5}}); err != nil {
			t.Fatal(err)
		}
		grown := map[labeledArc]int{}
		for a, c := range want {
			grown[a] = c
		}
		grown[labeledArc{3, 41, math.Float64bits(2.5), ""}]++
		assertSameArcs(t, "mutation", labeledArcs(t, mut), grown)
		u, v := VertexID(3), VertexID(41)
		mut.AddLabeledEdge(v, u, 0.5, "bac")
		if directed {
			u, v = v, u
		}
		grown[labeledArc{u, v, math.Float64bits(0.5), "bac"}]++
		assertSameArcs(t, "added edge", labeledArcs(t, mut), grown)
		assertSameArcs(t, "clone's source", labeledArcs(t, g), want)
	}
}

// TestVCSRLabeledRoundTrip writes a labeled snapshot: the file keeps
// the label table in the graph's first-add order, and a label id past
// the table is rejected on open.
func TestVCSRLabeledRoundTrip(t *testing.T) {
	g := New(3, false)
	g.AddLabeledEdge(0, 1, 1, "road")
	g.AddLabeledEdge(1, 2, 1, "")
	g.AddLabeledEdge(2, 0, 1, "rail")
	path := writeTempVCSR(t, g)
	loaded, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := loaded.CSR()
	if got := c.Labels; len(got) != 3 || got[0] != "" || got[1] != "road" || got[2] != "rail" {
		t.Fatalf("label table %q, want [\"\" road rail]", got)
	}
	assertSameArcs(t, "vcsr", labeledArcs(t, loaded), labeledArcs(t, g))
	loaded.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The label-id section follows the offsets, the block directory and
	// the stream; its first id sits 8-aligned after them.
	p := g.CSR()
	at := align8(align8(align8(vcsrHeaderLen+4*(p.N()+1))+4*(packedNumBlocks(p.NumEntries())+1)) + len(packEdges(p.Dsts).data))
	data[at] = 3
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if bad, err := OpenCSRFile(path); err == nil {
		bad.Close()
		t.Fatal("label id 3 of a 3-entry table accepted")
	}
}
