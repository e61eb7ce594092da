package graph

import "sort"

// DegreeOrder returns a degree-ordered permutation of g's vertices:
// order[newID] = oldID, sorted by total degree descending with ties
// broken by old ID ascending (so the permutation is deterministic).
// Packing hubs first shrinks varint-delta CSR blocks — high-degree
// adjacency lists then reference mostly-small IDs — and improves
// locality for the frontier-heavy early supersteps.
func DegreeOrder(g *Graph) []VertexID {
	if g.Directed {
		g.EnsureIn()
	}
	order := make([]VertexID, g.N())
	for v := range order {
		order[v] = VertexID(v)
	}
	sort.SliceStable(order, func(i, j int) bool {
		di, dj := g.TotalDegree(order[i]), g.TotalDegree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	return order
}

// Relabel builds a copy of g with vertices renamed through order
// (order[newID] = oldID, a permutation of 0..n-1): edge (u, v, w)
// becomes (newOf[u], newOf[v], w), weights and labels preserved,
// adjacency sorted by destination. The graph itself is isomorphic to
// g — algorithm results map back through the permutation.
func Relabel(g *Graph, order []VertexID) *Graph {
	n := g.N()
	newOf := make([]VertexID, n)
	for newID, oldID := range order {
		newOf[oldID] = VertexID(newID)
	}
	out := New(n, g.Directed)
	if g.Labels != nil {
		out.Labels = make([]string, n)
		for newID, oldID := range order {
			out.Labels[newID] = g.Labels[oldID]
		}
	}
	for u := range g.Out {
		for _, e := range g.Out[u] {
			if !g.Directed && VertexID(u) > e.Dst {
				continue // each undirected edge appears in both lists; keep one
			}
			out.AddLabeledEdge(newOf[u], newOf[e.Dst], e.W, g.EdgeLabel(e))
		}
	}
	out.SortAdjacency()
	return out
}
