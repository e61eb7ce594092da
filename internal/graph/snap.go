package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
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
// file always produces the same graph. Adjacency is sorted before
// returning (the deterministic order the algorithms assume, and the
// order under which the packed encoding compresses best); for directed
// graphs the in-adjacency is built.
func ReadSNAP(r io.Reader, opt SNAPOptions) (*Graph, error) {
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
		g.EnsureIn() // after the sort: parallel edges must keep the CSR transpose's order
	}
	return g, nil
}
