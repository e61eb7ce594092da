package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// DiameterResult holds the output of the eccentricity-flooding
// algorithm of Pennycuff & Weninger (Table 1 rows 1 and 17): exact
// eccentricities, the graph diameter, and — as a byproduct — all-pair
// shortest path distances in the unweighted graph.
type DiameterResult struct {
	Ecc      []int32
	Diameter int32
	// Dist[v][u] is the hop distance from u to v (-1 if unreachable);
	// this is the APSP matrix of row 17.
	Dist  [][]int32
	Stats *bsp.Stats
}

type diamValue struct {
	dist []int32 // per-origin distance; -1 = origin not seen (the "history")
	seen int64   // |history|, tracked incrementally for O(1) state reports
	ecc  int32
}

type diamProgram struct{ n int }

func (p *diamProgram) Init(g *graph.Graph, id VertexID) diamValue {
	dist := make([]int32, p.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[id] = 0
	return diamValue{dist: dist, seen: 1}
}

func (p *diamProgram) Compute(ctx *pregel.Context[diamValue, VertexID], msgs []VertexID) {
	v := ctx.Value()
	s := int32(ctx.Superstep())
	if s == 0 {
		// Originate this vertex's unique message.
		ctx.SendToNeighbors(ctx.ID())
		ctx.VoteToHalt()
		return
	}
	var fresh []VertexID
	for _, origin := range msgs {
		if v.dist[origin] == -1 {
			v.dist[origin] = s
			v.seen++
			v.ecc = s
			fresh = append(fresh, origin)
		}
	}
	if len(fresh) > 0 {
		for _, e := range ctx.OutEdges() {
			for _, origin := range fresh {
				ctx.SendTo(e.Dst, origin)
			}
		}
		ctx.Aggregate("ecc", int64(v.ecc))
	}
	ctx.VoteToHalt()
}

func (p *diamProgram) StateUnits(v *diamValue) int64 { return v.seen }

// Diameter runs the vertex-centric exact diameter algorithm: every
// vertex floods its ID, keeps a history of seen origins, and records
// the superstep of first arrival as the distance. The graph diameter
// equals the number of supersteps minus one (the final superstep
// delivers nothing new). Memory is Θ(n) per vertex — the algorithm is
// deliberately not BPPA, as the paper observes.
func Diameter(g *graph.Graph, cfg Config) (*DiameterResult, error) {
	prog := &diamProgram{n: g.N()}
	eng := pregel.NewEngine[diamValue, VertexID](g, prog, pregelConfig[VertexID](Env{Config: cfg}))
	eng.RegisterAggregator("ecc", pregel.MaxInt64())
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &DiameterResult{
		Ecc:   make([]int32, g.N()),
		Dist:  make([][]int32, g.N()),
		Stats: res.Stats,
	}
	for v, val := range res.Values {
		out.Ecc[v] = val.ecc
		out.Dist[v] = val.dist
		if val.ecc > out.Diameter {
			out.Diameter = val.ecc
		}
	}
	return out, nil
}
