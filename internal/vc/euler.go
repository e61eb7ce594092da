package vc

import (
	"fmt"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	"vcgraph/internal/seq"
)

// EulerTourResult holds the distributed Euler tour representation: for
// each vertex u and each neighbor v, Succ[u][v] = next_v(u), so the
// tour successor of directed edge (u,v) is (v, Succ[u][v]).
type EulerTourResult struct {
	Succ  []map[VertexID]VertexID
	Stats *bsp.Stats
}

type eulerMsg struct {
	From VertexID // the sender v
	Next VertexID // next_v(u), u = recipient
}

type eulerValue struct {
	succ map[VertexID]VertexID
}

type eulerProgram struct{}

func (eulerProgram) Init(g *graph.Graph, id VertexID) eulerValue {
	return eulerValue{}
}

func (eulerProgram) Compute(ctx *pregel.Context[eulerValue, eulerMsg], msgs []eulerMsg) {
	switch ctx.Superstep() {
	case 0:
		// Send <u, next_v(u)> to each neighbor u (adjacency is sorted).
		adj := ctx.OutEdges()
		for i, e := range adj {
			next := adj[(i+1)%len(adj)].Dst
			ctx.SendTo(e.Dst, eulerMsg{From: ctx.ID(), Next: next})
		}
		ctx.VoteToHalt()
	case 1:
		v := ctx.Value()
		v.succ = make(map[VertexID]VertexID, len(msgs))
		for _, m := range msgs {
			v.succ[m.From] = m.Next
		}
		ctx.VoteToHalt()
	}
}

func (eulerProgram) StateUnits(v *eulerValue) int64 { return int64(len(v.succ)) }

// EulerTour runs the 2-superstep vertex-centric Euler tour construction
// of Yan et al. (Table 1 row 8 — the one BPPA, work-optimal algorithm
// in the benchmark). The input must be a tree; adjacency is sorted by
// the construction's convention.
func EulerTour(t *graph.Graph, cfg Config) (*EulerTourResult, error) {
	if !t.IsTree() {
		return nil, fmt.Errorf("vc: EulerTour requires a tree (n=%d, m=%d)", t.N(), t.M())
	}
	t.SortAdjacency()
	eng := pregel.NewEngine[eulerValue, eulerMsg](t, eulerProgram{}, pregelConfig[eulerMsg](Env{Config: cfg}))
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &EulerTourResult{Succ: make([]map[VertexID]VertexID, t.N()), Stats: res.Stats}
	for v, val := range res.Values {
		out.Succ[v] = val.succ
	}
	return out, nil
}

// Walk materializes the tour as a sequence of 2(n-1) directed edges
// starting from root's first sorted neighbor; used for verification and
// by the traversal pipeline.
func (r *EulerTourResult) Walk(t *graph.Graph, root VertexID) []seq.DirEdge {
	if t.N() <= 1 {
		return nil
	}
	tour := make([]seq.DirEdge, 0, 2*(t.N()-1))
	cur := seq.DirEdge{U: root, V: t.Out[root][0].Dst}
	for i := 0; i < 2*(t.N()-1); i++ {
		tour = append(tour, cur)
		cur = seq.DirEdge{U: cur.V, V: r.Succ[cur.U][cur.V]}
	}
	return tour
}
