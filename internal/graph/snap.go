package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// SNAPOptions control ReadSNAP's parsing policy. The zero value matches
// the most common SNAP corpus shape: an undirected simple graph with
// self-loops and duplicate edges dropped.
type SNAPOptions struct {
	// Directed preserves edge direction; otherwise each pair is one
	// undirected edge (and its reverse appearance is a duplicate).
	Directed bool
	// KeepSelfLoops retains u-u edges instead of dropping them.
	KeepSelfLoops bool
	// KeepDuplicates retains repeated pairs as parallel edges instead
	// of keeping only the first appearance. For undirected graphs a
	// pair and its reverse count as the same edge.
	KeepDuplicates bool
	// KeepIDs records each vertex's original token as its label, so
	// results can be mapped back to the dataset's own IDs. Costs one
	// string per vertex.
	KeepIDs bool
}

// ReadSNAP parses a SNAP-style / TSV edge list: one whitespace-delimited
// vertex pair per line (an optional third field is the edge weight,
// which must be finite),
// lines starting with '#' or '%' and blank lines ignored. Vertex IDs
// are arbitrary tokens — LiveJournal-style integer IDs with gaps, or
// strings — interned to dense VertexIDs deterministically in first-
// appearance order (left field before right, line order), so the same
// file always produces the same graph. Adjacency is sorted by
// destination (the deterministic order the algorithms assume, and the
// order under which the packed encoding compresses best), with parallel
// edges in line order; for directed graphs the in-adjacency is built.
//
// The reader works on the scanner's line bytes: no string per line or
// per known token, one per vertex. Edges are collected as parallel
// source/destination arrays and laid out with two stable counting
// sorts, so no comparison sort and no per-edge map runs, and every row
// is a capacity-capped window of one exact-size []Edge.
func ReadSNAP(r io.Reader, opt SNAPOptions) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	intern := make(map[string]VertexID)
	var labels []string
	id := func(tok []byte) VertexID {
		if v, ok := intern[string(tok)]; ok { // the lookup does not copy tok
			return v
		}
		s := string(tok)
		v := VertexID(len(intern))
		intern[s] = v
		if opt.KeepIDs {
			labels = append(labels, s)
		}
		return v
	}
	var src, dst []VertexID
	var wts []float64 // nil while every weight is 1
	var f [3][]byte
	line := 0
	for sc.Scan() {
		line++
		nf := snapFields(sc.Bytes(), &f)
		if nf == 0 || f[0][0] == '#' || f[0][0] == '%' {
			continue
		}
		if nf < 2 || nf > 3 {
			return nil, fmt.Errorf("graph: snap line %d: want 'src dst [weight]', got %d fields", line, nf)
		}
		w := 1.0
		if nf == 3 {
			var err error
			if w, err = strconv.ParseFloat(string(f[2]), 64); err != nil || !finite(w) {
				return nil, fmt.Errorf("graph: snap line %d: bad weight %q", line, f[2])
			}
		}
		u, v := id(f[0]), id(f[1])
		if u == v && !opt.KeepSelfLoops {
			continue
		}
		if len(src) == math.MaxInt32/2 {
			return nil, fmt.Errorf("graph: snap line %d: more than %d edges", line, len(src))
		}
		if w != 1 && wts == nil {
			wts = make([]float64, len(src), cap(src))
			for i := range wts {
				wts[i] = 1
			}
		}
		// Double when full: append's 1.25x growth for large slices
		// would reallocate each array about five times over.
		if len(src) == cap(src) {
			src, dst = slices.Grow(src, len(src)), slices.Grow(dst, len(dst))
		}
		src, dst = append(src, u), append(dst, v)
		if wts != nil {
			if len(wts) == cap(wts) {
				wts = slices.Grow(wts, len(wts))
			}
			wts = append(wts, w)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := snapGraph(len(intern), src, dst, wts, opt)
	if opt.KeepIDs {
		g.Labels = labels
	}
	return g, nil
}

// snapFields stores the first three whitespace-separated fields of b in
// f and returns how many fields b holds in all. An ASCII line is split
// in place; a line with any byte ≥ 0x80 goes through bytes.Fields, so
// every Unicode space (unicode.IsSpace) separates fields there too.
func snapFields(b []byte, f *[3][]byte) int {
	n, start := 0, -1
	for i, c := range b {
		if c >= utf8.RuneSelf {
			fs := bytes.Fields(b)
			copy(f[:], fs)
			return len(fs)
		}
		if c == ' ' || c-'\t' <= '\r'-'\t' {
			if start >= 0 {
				if n < len(f) {
					f[n] = b[start:i]
				}
				n, start = n+1, -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = b[start:]
		}
		n++
	}
	return n
}

// snapGraph lays out the edges (src[i], dst[i], wts[i]) of an n-vertex
// graph. Arc 2i reads edge i forward and, on an undirected graph, arc
// 2i+1 reads it backward (a self-loop has only its forward arc). A
// stable counting sort of the arcs by destination, then one by source,
// leaves each row sorted by destination with parallel arcs in line
// order. Unless opt.KeepDuplicates, the first arc of each run of equal
// destinations is kept and the rest dropped: both rows of an undirected
// pair see the same edges in the same order, so they agree, and the
// first line's weight wins. The second sort counts the kept arcs of
// each row first and then writes each kept arc once, straight into its
// slot of the exact-size []Edge.
func snapGraph(n int, src, dst []VertexID, wts []float64, opt SNAPOptions) *Graph {
	g := New(n, opt.Directed)
	at := make([]int32, n+1)
	for i, d := range dst {
		at[d+1]++
		if !opt.Directed && d != src[i] {
			at[src[i]+1]++
		}
	}
	for v := 0; v < n; v++ {
		at[v+1] += at[v]
	}
	byDst := make([]uint32, at[n])
	for i := range src {
		byDst[at[dst[i]]] = uint32(2 * i)
		at[dst[i]]++
		if !opt.Directed && src[i] != dst[i] {
			byDst[at[src[i]]] = uint32(2*i + 1)
			at[src[i]]++
		}
	}
	// byDst lists the arcs by destination, so each row's arcs come in
	// destination order and a duplicate follows the arc it repeats:
	// last[s] is the destination of row s's latest kept arc.
	last := make([]VertexID, n)
	each := func(keep func(s, d VertexID, a uint32)) {
		for i := range last {
			last[i] = NoVertex
		}
		for _, a := range byDst {
			s, d := src[a>>1], dst[a>>1]
			if a&1 != 0 {
				s, d = d, s
			}
			if opt.KeepDuplicates || last[s] != d {
				last[s] = d
				keep(s, d, a)
			}
		}
	}
	clear(at)
	each(func(s, _ VertexID, _ uint32) { at[s+1]++ })
	for v := 0; v < n; v++ {
		at[v+1] += at[v]
	}
	buf := make([]Edge, at[n])
	each(func(s, d VertexID, a uint32) {
		e := &buf[at[s]]
		e.Dst, e.W = d, 1
		if wts != nil {
			e.W = wts[a>>1]
		}
		at[s]++
		if a&1 == 0 {
			g.numEdges++
		}
	})
	// at[v] now ends row v.
	lo := int32(0)
	for v := range g.Out {
		if hi := at[v]; hi > lo {
			g.Out[v] = buf[lo:hi:hi]
			lo = hi
		}
	}
	if g.Directed {
		g.EnsureIn()
	}
	return g
}
