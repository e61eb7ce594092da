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

// WriteEdgeList serializes g in the vcgraph edge-list format. It reads
// adjacency through g.CSR(), so an adopted (.vcsr) graph writes its
// edges too.
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
	c := g.CSR()
	var row []Edge
	var line []byte
	for u := 0; u < c.N(); u++ {
		row = c.AppendOutEdges(row[:0], VertexID(u))
		for _, e := range row {
			if !g.Directed && VertexID(u) > e.Dst {
				continue
			}
			line = appendArc(append(line[:0], "e "...), VertexID(u), " ", e.Dst)
			line = strconv.AppendFloat(append(line, ' '), e.W, 'g', -1, 64)
			if l := g.EdgeLabel(e); l != "" {
				line = append(append(line, ' '), l...)
			}
			line = append(line, '\n')
			bw.Write(line)
		}
	}
	return bw.Flush()
}

// WriteDOT serializes g in Graphviz DOT format for visualization:
// vertex labels become node labels, weights become edge labels (only
// when not 1). Like WriteEdgeList it reads adjacency through g.CSR().
func WriteDOT(w io.Writer, g *Graph, name string) error {
	bw := bufio.NewWriter(w)
	kind, sep := "graph", " -- "
	if g.Directed {
		kind, sep = "digraph", " -> "
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
	var line []byte
	emit := func(u, v VertexID, wt float64) {
		line = appendArc(append(line[:0], "  "...), u, sep, v)
		if wt != 1 {
			line = append(strconv.AppendFloat(append(line, ` [label="`...), wt, 'g', -1, 64), "\"]"...)
		}
		line = append(line, ";\n"...)
		bw.Write(line)
	}
	c := g.CSR()
	var row []Edge
	var und []UndirectedEdge
	for u := 0; u < c.N(); u++ {
		row = c.AppendOutEdges(row[:0], VertexID(u))
		for _, e := range row {
			if g.Directed {
				emit(VertexID(u), e.Dst, e.W)
			} else if VertexID(u) <= e.Dst {
				und = append(und, UndirectedEdge{U: VertexID(u), V: e.Dst, W: e.W})
			}
		}
	}
	sortUndirected(und)
	for _, e := range und {
		emit(e.U, e.V, e.W)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// appendArc appends "u<sep>v" to b.
func appendArc(b []byte, u VertexID, sep string, v VertexID) []byte {
	b = strconv.AppendInt(b, int64(u), 10)
	return strconv.AppendInt(append(b, sep...), int64(v), 10)
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
