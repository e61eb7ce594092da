package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Edge-list serialization. The format is line-oriented and
// self-describing:
//
//	vcgraph <n> <directed|undirected>
//	v <id> <label>            (optional, for labeled graphs)
//	e <src> <dst> <weight>    (undirected edges listed once, U <= V)
//	e <src> <dst> <weight> <edge-label>
//
// Lines starting with '#' and blank lines are ignored.

// WriteEdgeList serializes g in the vcgraph edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	dir := "undirected"
	if g.Directed {
		dir = "directed"
	}
	fmt.Fprintf(bw, "vcgraph %d %s\n", g.N(), dir)
	if g.Labels != nil {
		for v, l := range g.Labels {
			fmt.Fprintf(bw, "v %d %s\n", v, l)
		}
	}
	emit := func(u, v VertexID, wt float64, l string) {
		if l == "" {
			fmt.Fprintf(bw, "e %d %d %g\n", u, v, wt)
		} else {
			fmt.Fprintf(bw, "e %d %d %g %s\n", u, v, wt, l)
		}
	}
	if g.Directed {
		for u := range g.Out {
			for _, e := range g.Out[u] {
				emit(VertexID(u), e.Dst, e.W, e.L)
			}
		}
	} else {
		for u := range g.Out {
			for _, e := range g.Out[u] {
				if VertexID(u) <= e.Dst {
					emit(VertexID(u), e.Dst, e.W, e.L)
				}
			}
		}
	}
	return bw.Flush()
}

// WriteDOT serializes g in Graphviz DOT format for visualization:
// vertex labels become node labels, weights become edge labels (only
// when not 1).
func WriteDOT(w io.Writer, g *Graph, name string) error {
	bw := bufio.NewWriter(w)
	kind, sep := "graph", "--"
	if g.Directed {
		kind, sep = "digraph", "->"
	}
	if name == "" {
		name = "vcgraph"
	}
	fmt.Fprintf(bw, "%s %q {\n", kind, name)
	if g.Labels != nil {
		for v, l := range g.Labels {
			fmt.Fprintf(bw, "  %d [label=%q];\n", v, fmt.Sprintf("%d:%s", v, l))
		}
	}
	emit := func(u, v VertexID, wt float64) {
		if wt != 1 {
			fmt.Fprintf(bw, "  %d %s %d [label=\"%g\"];\n", u, sep, v, wt)
		} else {
			fmt.Fprintf(bw, "  %d %s %d;\n", u, sep, v)
		}
	}
	if g.Directed {
		for u := range g.Out {
			for _, e := range g.Out[u] {
				emit(VertexID(u), e.Dst, e.W)
			}
		}
	} else {
		for _, e := range g.UndirectedEdges() {
			emit(e.U, e.V, e.W)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// finite reports whether a parsed edge weight is usable: the file
// readers reject NaN and ±Inf, which strconv.ParseFloat accepts but no
// weighted algorithm can order or sum.
func finite(w float64) bool { return !math.IsNaN(w) && !math.IsInf(w, 0) }

// ReadEdgeList parses the vcgraph edge-list format. Edge weights must
// be finite.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "vcgraph":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate header", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: header wants 'vcgraph <n> <directed|undirected>'", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad vertex count %q", line, fields[1])
			}
			switch fields[2] {
			case "directed":
				g = New(n, true)
			case "undirected":
				g = New(n, false)
			default:
				return nil, fmt.Errorf("graph: line %d: bad direction %q", line, fields[2])
			}
		case "v":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: vertex before header", line)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: vertex line wants 'v <id> <label>'", line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= g.N() {
				return nil, fmt.Errorf("graph: line %d: bad vertex id %q", line, fields[1])
			}
			if g.Labels == nil {
				g.Labels = make([]string, g.N())
			}
			g.Labels[id] = strings.Join(fields[2:], " ")
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before header", line)
			}
			if len(fields) < 4 || len(fields) > 5 {
				return nil, fmt.Errorf("graph: line %d: edge line wants 'e <src> <dst> <w> [label]'", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			w, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil || !finite(w) ||
				u < 0 || u >= g.N() || v < 0 || v >= g.N() {
				return nil, fmt.Errorf("graph: line %d: bad edge %q", line, text)
			}
			l := ""
			if len(fields) == 5 {
				l = fields[4]
			}
			g.AddLabeledEdge(VertexID(u), VertexID(v), w, l)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing header")
	}
	if g.Directed {
		g.EnsureIn()
	}
	g.SortAdjacency()
	return g, nil
}
