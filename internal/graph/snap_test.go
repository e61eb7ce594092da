package graph

import (
	"strconv"
	"strings"
	"testing"
)

// liveJournalStyle mimics the SNAP corpus shape: '#' header comments,
// tab-separated integer pairs with gaps in the ID space, duplicate
// edges, a reverse appearance, and a self-loop.
const liveJournalStyle = `# Directed graph (each unordered pair of nodes is saved once)
# LiveJournal-style fixture
# FromNodeId	ToNodeId
0	11
0	102
11	102
102	0
11	11
0	11
% percent comments happen in some TSV corpora

102	7
`

func TestReadSNAPUndirectedSimple(t *testing.T) {
	g, err := ReadSNAP(strings.NewReader(liveJournalStyle), SNAPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Interning order: 0, 11, 102, 7 -> 0, 1, 2, 3.
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.Directed {
		t.Fatal("undirected graph marked directed")
	}
	// Self-loop dropped; 102->0 is the reverse of 0->102 and 0->11
	// repeats, both dropped: {0,11} {0,102} {11,102} {102,7}.
	if g.M() != 4 {
		t.Fatalf("M = %d, want 4", g.M())
	}
	wantAdj := map[VertexID][]VertexID{
		0: {1, 2},
		1: {0, 2},
		2: {0, 1, 3},
		3: {2},
	}
	for v, want := range wantAdj {
		got := g.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("v%d neighbors = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("v%d neighbors = %v, want %v", v, got, want)
			}
		}
	}
}

func TestReadSNAPDirectedPolicies(t *testing.T) {
	g, err := ReadSNAP(strings.NewReader(liveJournalStyle), SNAPOptions{
		Directed:       true,
		KeepSelfLoops:  true,
		KeepDuplicates: true,
		KeepIDs:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Everything kept: 7 data lines = 7 directed edges.
	if g.M() != 7 {
		t.Fatalf("M = %d, want 7", g.M())
	}
	if !g.Directed {
		t.Fatal("directed graph not marked directed")
	}
	wantLabels := []string{"0", "11", "102", "7"}
	for v, want := range wantLabels {
		if g.Labels[v] != want {
			t.Fatalf("label[%d] = %q, want %q", v, g.Labels[v], want)
		}
	}
	// 102->0 is a distinct directed edge, not a duplicate of 0->102, so
	// out-degrees count every line: 0->{11,102,11}, 11->{102,11},
	// 102->{0,7}.
	deg := map[VertexID]int{0: 3, 1: 2, 2: 2, 3: 0}
	for v, want := range deg {
		if got := g.Degree(v); got != want {
			t.Fatalf("out-degree of v%d = %d, want %d", v, got, want)
		}
	}
	// Directed duplicates kept: 0->11 appears twice.
	cnt := 0
	for _, d := range g.Neighbors(0) {
		if d == 1 {
			cnt++
		}
	}
	if cnt != 2 {
		t.Fatalf("duplicate 0->11 kept %d times, want 2", cnt)
	}
	// In-adjacency was built eagerly: 0->11 twice plus the self-loop.
	if got := g.InDegree(1); got != 3 {
		t.Fatalf("in-degree of v1 = %d, want 3", got)
	}
}

func TestReadSNAPDeterministicInterning(t *testing.T) {
	// Same file, non-integer tokens: interning must be first-appearance
	// order regardless of token content, and two reads must agree.
	const data = "beta alpha\ngamma beta\nalpha gamma\n"
	g1, err := ReadSNAP(strings.NewReader(data), SNAPOptions{KeepIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ReadSNAP(strings.NewReader(data), SNAPOptions{KeepIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"beta", "alpha", "gamma"}
	for v := range want {
		if g1.Labels[v] != want[v] || g2.Labels[v] != want[v] {
			t.Fatalf("labels = %v / %v, want %v", g1.Labels, g2.Labels, want)
		}
	}
}

func TestReadSNAPWeights(t *testing.T) {
	g, err := ReadSNAP(strings.NewReader("a b 2.5\nb c 0.25\n"), SNAPOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if w := g.Out[0][0].W; w != 2.5 {
		t.Fatalf("weight a->b = %g, want 2.5", w)
	}
	if w := g.Out[1][0].W; w != 0.25 {
		t.Fatalf("weight b->c = %g, want 0.25", w)
	}
}

func TestReadSNAPErrors(t *testing.T) {
	for _, bad := range []string{
		"a\n",           // one field
		"a b c d\n",     // four fields
		"a b notanum\n", // bad weight
		"a b 1\nb c NaN\n",
		"a b +Inf\n",
		"a a -inf\n", // rejected even where the self-loop would be dropped
	} {
		_, err := ReadSNAP(strings.NewReader(bad), SNAPOptions{})
		if err == nil {
			t.Errorf("ReadSNAP(%q) accepted malformed input", bad)
		} else if want := "line " + strconv.Itoa(strings.Count(bad, "\n")); !strings.Contains(err.Error(), want) {
			t.Errorf("ReadSNAP(%q) error %q does not name %s", bad, err, want)
		}
	}
	// Empty input is a valid empty graph, not an error.
	g, err := ReadSNAP(strings.NewReader("# only comments\n\n"), SNAPOptions{})
	if err != nil || g.N() != 0 {
		t.Fatalf("comment-only input: g.N()=%d err=%v", g.N(), err)
	}
}

// FuzzReadSNAP feeds arbitrary text through the SNAP parser under every
// option combination. The only allowed outcomes are an error, or a graph
// with one vertex per distinct token in the data lines (interned before
// self-loops and duplicates are dropped) and no non-finite weight,
// whose CSR passes the round-trip check, flat and packed alike. A data
// line whose weight parses as NaN or ±Inf must be an error.
func FuzzReadSNAP(f *testing.F) {
	f.Add(liveJournalStyle, uint8(0))
	f.Add(liveJournalStyle, uint8(15))
	f.Add("a b 2.5\nb c 0.25\n", uint8(1))
	f.Add("beta alpha\ngamma beta\nalpha gamma\n", uint8(8))
	f.Add("x x\nx y 1e308\n\r\n# c\ny x -0\n", uint8(6))
	f.Add("1 0 NAN\n0 2 -Inf\n", uint8(0)) // ParseFloat accepts both; the reader must not
	// Thirteen parallel edges, enough for sort.Slice to reorder them:
	// the in-lists must still match the CSR transpose.
	f.Add("0 00\n0 0 0\n"+strings.Repeat("0 0\n", 11), uint8(7))

	f.Fuzz(func(t *testing.T, data string, flags uint8) {
		opt := SNAPOptions{
			Directed:       flags&1 != 0,
			KeepSelfLoops:  flags&2 != 0,
			KeepDuplicates: flags&4 != 0,
			KeepIDs:        flags&8 != 0,
		}
		g, err := ReadSNAP(strings.NewReader(data), opt)
		if err != nil {
			return
		}
		for _, line := range strings.Split(data, "\n") {
			if fields := strings.Fields(line); len(fields) == 3 && fields[0][0] != '#' && fields[0][0] != '%' {
				if w, perr := strconv.ParseFloat(fields[2], 64); perr == nil && !finite(w) {
					t.Fatalf("accepted the non-finite weight in %q", line)
				}
			}
		}
		for v := range g.Out {
			for _, e := range g.Out[v] {
				if !finite(e.W) {
					t.Fatalf("edge %d->%d has weight %v", v, e.Dst, e.W)
				}
			}
		}
		tokens := map[string]bool{}
		for _, line := range strings.Split(data, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || line[0] == '#' || line[0] == '%' {
				continue
			}
			fields := strings.Fields(line)
			tokens[fields[0]], tokens[fields[1]] = true, true
		}
		if g.N() != len(tokens) {
			t.Fatalf("N = %d, want %d distinct IDs", g.N(), len(tokens))
		}
		if opt.KeepIDs {
			for v, l := range g.Labels {
				if !tokens[l] {
					t.Fatalf("label[%d] = %q is not an input token", v, l)
				}
				delete(tokens, l)
			}
			if len(tokens) != 0 {
				t.Fatalf("%d tokens have no vertex label", len(tokens))
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		checkCSRRoundTrip(t, g)
		assertCSREqual(t, "snap", BuildCSR(g), BuildPackedCSR(g))
	})
}

func TestReadSNAPPackedRoundTrip(t *testing.T) {
	// A SNAP-loaded graph must build identical flat and packed CSRs —
	// the loader sorts adjacency, which is the codec's best case.
	g, err := ReadSNAP(strings.NewReader(liveJournalStyle), SNAPOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	assertCSREqual(t, "snap", BuildCSR(g), BuildPackedCSR(g))
}
