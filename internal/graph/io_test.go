package graph

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func graphsEqual(a, b *Graph) bool {
	if a.Directed != b.Directed || a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		if a.Label(VertexID(v)) != b.Label(VertexID(v)) {
			return false
		}
	}
	type triple struct {
		u, v VertexID
		w    float64
		l    string
	}
	collect := func(g *Graph) map[triple]int {
		m := map[triple]int{}
		for u := range g.Out {
			for _, e := range g.Out[u] {
				m[triple{VertexID(u), e.Dst, e.W, g.EdgeLabel(e)}]++
			}
		}
		return m
	}
	ma, mb := collect(a), collect(b)
	if len(ma) != len(mb) {
		return false
	}
	for k, c := range ma {
		if mb[k] != c {
			return false
		}
	}
	return true
}

func TestEdgeListRoundTripUndirected(t *testing.T) {
	g := RandomConnected(50, 120, 3)
	RandomWeights(g, 4)
	if !graphsEqual(g, roundTrip(t, g)) {
		t.Fatal("round trip changed the graph")
	}
}

func TestEdgeListRoundTripDirectedLabeled(t *testing.T) {
	g := RandomDirected(40, 160, 5)
	RandomLabels(g, []string{"A", "B", "C"}, 6)
	g = withEdgeLabels(g, []string{"", "x", "y"}, 7)
	back := roundTrip(t, g)
	if !graphsEqual(g, back) {
		t.Fatal("round trip changed the graph")
	}
	if back.In == nil {
		t.Fatal("reader did not build in-adjacency for directed graph")
	}
}

func TestEdgeListRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := Random(30, 60, seed)
		return graphsEqual(g, roundTrip(t, g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListComments(t *testing.T) {
	in := `# a comment
vcgraph 3 undirected

e 0 1 2.5
# another
e 1 2 1
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if g.Out[0][0].W != 2.5 {
		t.Fatalf("weight %v", g.Out[0][0].W)
	}
}

func TestEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"no header":        "e 0 1 1\n",
		"double header":    "vcgraph 2 undirected\nvcgraph 2 undirected\n",
		"bad direction":    "vcgraph 2 sideways\n",
		"bad count":        "vcgraph -4 directed\n",
		"edge range":       "vcgraph 2 undirected\ne 0 7 1\n",
		"vertex range":     "vcgraph 2 undirected\nv 9 X\n",
		"unknown record":   "vcgraph 2 undirected\nz 1 2\n",
		"short edge":       "vcgraph 2 undirected\ne 0 1\n",
		"empty input":      "",
		"non-numeric edge": "vcgraph 2 undirected\ne a b c\n",
		"NaN weight":       "vcgraph 2 undirected\ne 0 1 1\ne 0 1 NaN\n",
		"infinite weight":  "vcgraph 2 directed\ne 1 0 -Inf\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	_, err := ReadEdgeList(strings.NewReader(cases["NaN weight"]))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("NaN weight: error %v does not name line 3", err)
	}
}

func TestEdgeListEmptyGraph(t *testing.T) {
	g := New(5, false)
	back := roundTrip(t, g)
	if back.N() != 5 || back.M() != 0 {
		t.Fatalf("n=%d m=%d", back.N(), back.M())
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(3, false)
	g.AddWeightedEdge(0, 1, 2.5)
	g.AddEdge(1, 2)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, "demo"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`graph "demo"`, "0 -- 1", `label="2.5"`, "1 -- 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	d := New(2, true)
	d.Labels = []string{"A", "B"}
	d.AddEdge(0, 1)
	buf.Reset()
	if err := WriteDOT(&buf, d, ""); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{`digraph "vcgraph"`, "0 -> 1", `label="0:A"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
}

// TestWritersReadAdoptedGraphs: a graph opened from a .vcsr file has no
// Out rows, so the writers must read its adjacency through the CSR and
// print what the graph it was written from prints.
func TestWritersReadAdoptedGraphs(t *testing.T) {
	undirected := RandomConnected(80, 240, 3)
	RandomWeights(undirected, 4)
	directed := RandomDirected(60, 300, 5)
	RandomWeights(directed, 6)
	for name, g := range map[string]*Graph{"undirected": undirected, "directed": directed} {
		adopted, err := OpenCSRFile(writeTempVCSR(t, g))
		if err != nil {
			t.Fatal(err)
		}
		defer adopted.Close()
		for _, write := range []func(io.Writer, *Graph) error{
			WriteEdgeList,
			func(w io.Writer, g *Graph) error { return WriteDOT(w, g, name) },
		} {
			var want, got bytes.Buffer
			if err := write(&want, g); err != nil {
				t.Fatal(err)
			}
			if err := write(&got, adopted); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s: adopted graph wrote %d bytes, want %d", name, got.Len(), want.Len())
			}
		}
	}
}
