package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Double-sweep diameter estimation: the linear-time alternative the
// exact algorithm of row 1 is benchmarked against in practice (and the
// spirit of the Roditty–Williams approximation the paper cites as the
// sequential comparator). Two BFS waves — from a start vertex, then
// from the farthest vertex found — yield a lower bound on the diameter
// that is exact on trees and usually tight on real graphs, in O(δ)
// supersteps and O(m) work per sweep instead of O(mn) total.

// DoubleSweepResult holds the diameter lower bound and the endpoints
// of the witnessing path.
type DoubleSweepResult struct {
	LowerBound int32
	From, To   VertexID
	Stats      *bsp.Stats
}

type dsValue struct{ dist int32 }

type dsProgram struct{ src VertexID }

func (p *dsProgram) Init(g *graph.Graph, id VertexID) dsValue {
	if id == p.src {
		return dsValue{dist: 0}
	}
	return dsValue{dist: -1}
}

func (p *dsProgram) Compute(ctx *pregel.Context[dsValue, int32], msgs []int32) {
	v := ctx.Value()
	if ctx.Superstep() == 0 {
		if ctx.ID() == p.src {
			ctx.SendToNeighbors(1)
		}
		ctx.VoteToHalt()
		return
	}
	if v.dist == -1 && len(msgs) > 0 {
		v.dist = msgs[0]
		ctx.SendToNeighbors(v.dist + 1)
	}
	ctx.VoteToHalt()
}

func (p *dsProgram) StateUnits(v *dsValue) int64 { return 1 }

// bfsWave runs one BFS sweep and returns distances plus the farthest
// reached vertex (ties to the smallest ID).
func bfsWave(g *graph.Graph, src VertexID, cfg Config) ([]int32, VertexID, *bsp.Stats, error) {
	prog := &dsProgram{src: src}
	ecfg := pregelConfig[int32](Env{Config: cfg})
	ecfg.Combiner = func(a, b int32) int32 {
		if a < b {
			return a
		}
		return b
	}
	eng := pregel.NewEngine[dsValue, int32](g, prog, ecfg)
	res, err := eng.Run()
	if err != nil {
		return nil, graph.NoVertex, nil, err
	}
	dist := make([]int32, g.N())
	far := src
	for v, val := range res.Values {
		dist[v] = val.dist
		if val.dist > dist[far] || (val.dist == dist[far] && VertexID(v) < far) {
			far = VertexID(v)
		}
	}
	return dist, far, res.Stats, nil
}

// DoubleSweepDiameter estimates the diameter with two BFS sweeps from
// start (default: vertex 0 when start is NoVertex).
func DoubleSweepDiameter(g *graph.Graph, start VertexID, cfg Config) (*DoubleSweepResult, error) {
	if g.N() == 0 {
		return &DoubleSweepResult{From: graph.NoVertex, To: graph.NoVertex, Stats: &bsp.Stats{}}, nil
	}
	if start == graph.NoVertex {
		start = 0
	}
	_, a, st1, err := bfsWave(g, start, cfg)
	if err != nil {
		return nil, err
	}
	dist, b, st2, err := bfsWave(g, a, cfg)
	if err != nil {
		return nil, err
	}
	return &DoubleSweepResult{
		LowerBound: dist[b],
		From:       a,
		To:         b,
		Stats:      MergeStats(st1, st2),
	}, nil
}
