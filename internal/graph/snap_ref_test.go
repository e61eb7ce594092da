package graph

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// readSNAPReference is the first ReadSNAP: one string per line, a
// map[[2]VertexID] of seen pairs, AddWeightedEdge, then SortAdjacency.
// ReadSNAP must return its errors and its graphs (see
// assertSameSNAPGraph).
func readSNAPReference(r io.Reader, opt SNAPOptions) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	intern := make(map[string]VertexID)
	var labels []string
	id := func(tok string) VertexID {
		if v, ok := intern[tok]; ok {
			return v
		}
		v := VertexID(len(intern))
		intern[tok] = v
		if opt.KeepIDs {
			labels = append(labels, tok)
		}
		return v
	}
	type pair struct {
		u, v VertexID
		w    float64
	}
	var edges []pair
	var seen map[[2]VertexID]struct{}
	if !opt.KeepDuplicates {
		seen = make(map[[2]VertexID]struct{})
	}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("graph: snap line %d: want 'src dst [weight]', got %d fields", line, len(fields))
		}
		w := 1.0
		if len(fields) == 3 {
			var err error
			if w, err = strconv.ParseFloat(fields[2], 64); err != nil || !finite(w) {
				return nil, fmt.Errorf("graph: snap line %d: bad weight %q", line, fields[2])
			}
		}
		u, v := id(fields[0]), id(fields[1])
		if u == v && !opt.KeepSelfLoops {
			continue
		}
		if seen != nil {
			k := [2]VertexID{u, v}
			if !opt.Directed && u > v {
				k = [2]VertexID{v, u}
			}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
		}
		edges = append(edges, pair{u, v, w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := New(len(intern), opt.Directed)
	if opt.KeepIDs {
		g.Labels = labels
	}
	for _, e := range edges {
		g.AddWeightedEdge(e.u, e.v, e.w)
	}
	g.SortAdjacency()
	if g.Directed {
		g.EnsureIn()
	}
	return g, nil
}

// assertSameSNAPGraph checks that got and want have the same shape and
// labels, and that every Out and In row matches arc by arc. A run of
// equal destinations (parallel arcs, which only KeepDuplicates keeps)
// compares as a multiset: ReadSNAP lists parallel arcs in line order,
// the reference in whatever order sort.Slice left them.
func assertSameSNAPGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.Directed != want.Directed {
		t.Fatalf("shape n=%d/%d m=%d/%d directed=%v/%v",
			got.N(), want.N(), got.M(), want.M(), got.Directed, want.Directed)
	}
	if !slices.Equal(got.Labels, want.Labels) || (got.Labels == nil) != (want.Labels == nil) {
		t.Fatalf("labels %q, want %q", got.Labels, want.Labels)
	}
	if (got.In == nil) != (want.In == nil) {
		t.Fatalf("In built = %v, want %v", got.In != nil, want.In != nil)
	}
	type arc struct {
		w uint64
		l string
	}
	runKey := func(g *Graph, run []Edge) []arc {
		out := make([]arc, len(run))
		for i, e := range run {
			out[i] = arc{math.Float64bits(e.W), g.EdgeLabel(e)}
		}
		slices.SortFunc(out, func(a, b arc) int {
			return cmp.Or(cmp.Compare(a.w, b.w), strings.Compare(a.l, b.l))
		})
		return out
	}
	sameRows := func(side string, g, w [][]Edge) {
		for v := range w {
			gr, wr := g[v], w[v]
			if len(gr) != len(wr) {
				t.Fatalf("%s[%d] has %d arcs, want %d", side, v, len(gr), len(wr))
			}
			for lo := 0; lo < len(wr); {
				hi := lo + 1
				for hi < len(wr) && wr[hi].Dst == wr[lo].Dst {
					hi++
				}
				for i := lo; i < hi; i++ {
					if gr[i].Dst != wr[i].Dst {
						t.Fatalf("%s[%d][%d].Dst = %d, want %d", side, v, i, gr[i].Dst, wr[i].Dst)
					}
				}
				if !slices.Equal(runKey(got, gr[lo:hi]), runKey(want, wr[lo:hi])) {
					t.Fatalf("%s[%d] arcs to %d: %v, want %v", side, v, wr[lo].Dst, gr[lo:hi], wr[lo:hi])
				}
				lo = hi
			}
		}
	}
	sameRows("Out", got.Out, want.Out)
	sameRows("In", got.In, want.In)
}

// checkSNAPMatchesReference parses data with both readers and requires
// the same error text or the same graph.
func checkSNAPMatchesReference(t *testing.T, data string, opt SNAPOptions) {
	t.Helper()
	got, gotErr := ReadSNAP(strings.NewReader(data), opt)
	want, wantErr := readSNAPReference(strings.NewReader(data), opt)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%+v: error %v, want %v", opt, gotErr, wantErr)
	}
	if gotErr == nil {
		assertSameSNAPGraph(t, got, want)
	}
}

func snapOptions(flags uint8) SNAPOptions {
	return SNAPOptions{
		Directed:       flags&1 != 0,
		KeepSelfLoops:  flags&2 != 0,
		KeepDuplicates: flags&4 != 0,
		KeepIDs:        flags&8 != 0,
	}
}

// FuzzReadSNAPMatchesReference runs FuzzReadSNAP's inputs through both
// parsers: ReadSNAP must return the reference's error text, or its
// graph.
func FuzzReadSNAPMatchesReference(f *testing.F) {
	f.Add(liveJournalStyle, uint8(0))
	f.Add(liveJournalStyle, uint8(15))
	f.Add("a b 2.5\nb c 0.25\n", uint8(1))
	f.Add("beta alpha\ngamma beta\nalpha gamma\n", uint8(8))
	f.Add("x x\nx y 1e308\n\r\n# c\ny x -0\n", uint8(6))
	f.Add("1 0 NAN\n0 2 -Inf\n", uint8(0))
	f.Add("0 00\n0 0 0\n"+strings.Repeat("0 0\n", 11), uint8(7))
	// Parallel arcs with distinct weights, both ways round.
	f.Add("a b 1\nb a 2\na b 3\nb b 4\nb b 5\n", uint8(6))
	f.Add("a b 1\nb a 2\na b 3\nb b 4\nb b 5\n", uint8(7))
	// Unicode spaces separate fields; an invalid byte does not.
	f.Add("a b\n # c\n\u0085c\td　 2\n", uint8(8))
	f.Add("a\x85b c\n\x85 d\n", uint8(8))

	f.Fuzz(func(t *testing.T, data string, flags uint8) {
		checkSNAPMatchesReference(t, data, snapOptions(flags))
	})
}

// benchmarkShapeSNAP writes g the way the ingest benchmark does: its
// undirected edges in seeded random order, IDs 3v+7, a '#' header and a
// '%' comment every thousand lines.
func benchmarkShapeSNAP(g *Graph, seed int64) string {
	edges := g.UndirectedEdges()
	rand.New(rand.NewSource(seed)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Undirected graph\n# Nodes: %d Edges: %d\n# FromNodeId\tToNodeId\n", g.N(), len(edges))
	for i, e := range edges {
		if i > 0 && i%1000 == 0 {
			fmt.Fprintf(&sb, "%% %d edges so far\n", i)
		}
		fmt.Fprintf(&sb, "%d\t%d\n", 3*e.U+7, 3*e.V+7)
	}
	return sb.String()
}

func TestReadSNAPMatchesReferenceOnBenchmarkShape(t *testing.T) {
	data := benchmarkShapeSNAP(RMAT(15, 250000, 1), 1)
	for _, opt := range []SNAPOptions{{}, {Directed: true, KeepIDs: true}} {
		checkSNAPMatchesReference(t, data, opt)
	}
}

// TestReadSNAPRowsIndependent edits a parsed graph through AddEdge and
// ApplyMutations: every row sits in one shared buffer, so an append to
// one row must reallocate it rather than write into the next.
func TestReadSNAPRowsIndependent(t *testing.T) {
	data := benchmarkShapeSNAP(RMAT(9, 3000, 4), 2)
	for _, directed := range []bool{false, true} {
		opt := SNAPOptions{Directed: directed}
		got, err := ReadSNAP(strings.NewReader(data), opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := readSNAPReference(strings.NewReader(data), opt)
		if err != nil {
			t.Fatal(err)
		}
		// u and v have non-empty rows followed by non-empty rows, on
		// the out side and (directed) on the in side.
		full := func(rows [][]Edge, v int) bool { return len(rows[v]) > 0 && len(rows[v+1]) > 0 }
		u, v := -1, -1
		for x := 0; x+1 < got.N(); x++ {
			if !full(got.Out, x) || (directed && !full(got.In, x)) {
				continue
			}
			if u < 0 {
				u = x
			} else if x > u+1 {
				v = x
				break
			}
		}
		if v < 0 {
			t.Fatal("no pair of vertices with full neighbouring rows")
		}
		del := got.Out[v+1][0].Dst
		for _, g := range []*Graph{got, want} {
			g.AddEdge(VertexID(u), VertexID(v))
			if _, err := g.ApplyMutations([]Mutation{
				{Op: InsertEdge, U: VertexID(v), V: VertexID(u), W: 2},
				{Op: DeleteEdge, U: VertexID(v + 1), V: del},
				{Op: InsertEdge, U: VertexID(u + 1), V: VertexID(v + 1), W: 0.5},
			}); err != nil {
				t.Fatal(err)
			}
		}
		assertSameSNAPGraph(t, got, want)
		assertCSREqual(t, "edited", want.CSR(), got.CSR())
		if directed {
			// EnsureIn is shared by both parsers, so check In against Out.
			type arc struct{ u, v VertexID }
			out := map[arc]int{}
			for x := range got.Out {
				for _, e := range got.Out[x] {
					out[arc{VertexID(x), e.Dst}]++
				}
			}
			for x := range got.In {
				for _, e := range got.In[x] {
					out[arc{e.Dst, VertexID(x)}]--
				}
			}
			for a, c := range out {
				if c != 0 {
					t.Fatalf("arc %d->%d: %+d more in Out than in In", a.u, a.v, c)
				}
			}
		}
	}
}

// TestReadSNAPAllocsIndependentOfLines: over a fixed vertex set,
// ReadSNAP allocates per vertex and per slice doubling, not per line.
func TestReadSNAPAllocsIndependentOfLines(t *testing.T) {
	file := func(lines int) string {
		rng := rand.New(rand.NewSource(int64(lines)))
		var sb strings.Builder
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&sb, "%d\t%d\n", 3*rng.Intn(1000)+7, 3*rng.Intn(1000)+7)
		}
		return sb.String()
	}
	allocs := func(data string) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := ReadSNAP(strings.NewReader(data), SNAPOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(file(20000)), allocs(file(200000))
	t.Logf("allocs per ReadSNAP: %.0f at 20k lines, %.0f at 200k lines", small, large)
	if large > 1.5*small {
		if raceEnabled {
			t.Logf("(race build) allocs grew %.2fx with 10x the lines", large/small)
		} else {
			t.Fatalf("allocs grew %.2fx with 10x the lines, want at most 1.5x", large/small)
		}
	}
}

// TestReadSNAPBytesPerArc bounds the heap ReadSNAP allocates per
// adjacency entry on the ingest benchmark's input, and pins the 16-byte
// Edge the bound rests on. Scanner buffer, interning and the edge
// arrays all count.
func TestReadSNAPBytesPerArc(t *testing.T) {
	if size := unsafe.Sizeof(Edge{}); size != 16 {
		t.Fatalf("Edge is %d bytes, want 16", size)
	}
	data := benchmarkShapeSNAP(RMAT(15, 250000, 1), 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := ReadSNAP(strings.NewReader(data), SNAPOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	arcs := 0
	for _, row := range g.Out {
		arcs += len(row)
	}
	perArc := float64(after.TotalAlloc-before.TotalAlloc) / float64(arcs)
	t.Logf("ReadSNAP: %d arcs, %.1f heap bytes per arc", arcs, perArc)
	if perArc > 40 {
		if raceEnabled {
			t.Logf("(race build) %.1f bytes per arc, bound 40", perArc)
		} else {
			t.Fatalf("%.1f heap bytes per arc, want at most 40", perArc)
		}
	}
}
