package vc

import (
	"sort"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Triangle counting and local clustering coefficients: the paper's
// §3.8 names these as workloads that need a subgraph-centric view and
// are therefore awkward in the vertex-centric model — every vertex
// must learn (part of) its neighbors' adjacency, so message volume is
// Σ_v d(v)² rather than O(m). This module implements the standard
// degree-ordered neighborhood-exchange algorithm so the blow-up can be
// measured (see the X.01 extension experiment in internal/core).
//
// Protocol (two supersteps, undirected input):
//   - rank vertices by (degree, ID); orient each edge from lower to
//     higher rank;
//   - superstep 0: every vertex sends its higher-ranked neighbor list
//     to each higher-ranked neighbor;
//   - superstep 1: vertex w receiving u's list over edge (u,w) counts
//     the intersection with its own higher-ranked adjacency — each hit
//     closes a triangle exactly once.
//
// Per-triangle credit is then folded back to all three corners for the
// clustering coefficient.

// TriangleResult holds per-vertex triangle counts, the global triangle
// count, and local clustering coefficients.
type TriangleResult struct {
	PerVertex  []int64
	Total      int64
	Clustering []float64
	Stats      *bsp.Stats
}

type triMsg struct {
	From   VertexID
	Higher []VertexID
}

type triValue struct {
	higher    []VertexID // neighbors ranked above this vertex
	triangles int64
}

type triProgram struct {
	rank []int32
}

func (p *triProgram) less(a, b VertexID) bool { return p.rank[a] < p.rank[b] }

func (p *triProgram) Init(g *graph.Graph, id VertexID) triValue {
	var higher []VertexID
	for _, dst := range g.CSR().Out(id) {
		if p.less(id, dst) {
			higher = append(higher, dst)
		}
	}
	sort.Slice(higher, func(i, j int) bool { return higher[i] < higher[j] })
	return triValue{higher: higher}
}

func (p *triProgram) Compute(ctx *pregel.Context[triValue, triMsg], msgs []triMsg) {
	v := ctx.Value()
	switch ctx.Superstep() {
	case 0:
		// Ship this vertex's higher-adjacency to every higher neighbor.
		for _, w := range v.higher {
			ctx.SendTo(w, triMsg{From: ctx.ID(), Higher: v.higher})
			ctx.Charge(int64(len(v.higher)))
		}
		return // stay active to count at superstep 1
	case 1:
		mine := v.higher
		for _, m := range msgs {
			ctx.Charge(int64(len(m.Higher) + len(mine)))
			// Sorted-merge intersection of m.Higher with mine: each hit
			// x closes the triangle (m.From, me, x). Credit the pivot
			// (lowest-ranked corner, m.From) by telling it; me and x
			// count locally on receipt at superstep 2.
			i, j := 0, 0
			for i < len(m.Higher) && j < len(mine) {
				switch {
				case m.Higher[i] == mine[j]:
					v.triangles++
					ctx.SendTo(m.From, triMsg{From: ctx.ID()})
					ctx.SendTo(mine[j], triMsg{From: ctx.ID()})
					i++
					j++
				case m.Higher[i] < mine[j]:
					i++
				default:
					j++
				}
			}
		}
		ctx.VoteToHalt()
	default:
		// Triangle credits for the other two corners.
		v.triangles += int64(len(msgs))
		ctx.VoteToHalt()
	}
}

func (p *triProgram) StateUnits(v *triValue) int64 { return int64(1 + len(v.higher)) }

// Triangles counts triangles of an undirected graph in the
// vertex-centric model. Message volume is Θ(Σ d(v)²) in the worst case
// — the §3.8 communication overhead — while the sequential baseline
// touches each adjacency intersection once.
func Triangles(g *graph.Graph, cfg Config) (*TriangleResult, error) {
	n := g.N()
	// Degree ranking (degeneracy-style orientation bounds the shipped
	// lists by the graph's arboricity in the good case).
	order := make([]VertexID, n)
	for i := range order {
		order[i] = VertexID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	rank := make([]int32, n)
	for i, v := range order {
		rank[v] = int32(i)
	}
	prog := &triProgram{rank: rank}
	eng := pregel.NewEngine[triValue, triMsg](g, prog, pregelConfig[triMsg](Env{Config: cfg}))
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &TriangleResult{
		PerVertex:  make([]int64, n),
		Clustering: make([]float64, n),
		Stats:      res.Stats,
	}
	for v, val := range res.Values {
		out.PerVertex[v] = val.triangles
		out.Total += val.triangles
	}
	out.Total /= 3 // each triangle credited at all three corners
	for v := 0; v < n; v++ {
		d := g.Degree(VertexID(v))
		if d >= 2 {
			out.Clustering[v] = 2 * float64(out.PerVertex[v]) / float64(d*(d-1))
		}
	}
	return out, nil
}
