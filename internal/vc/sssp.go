package vc

import (
	"math"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	"vcgraph/internal/runtime"
)

// SSSPResult holds the vertex-centric single-source shortest path
// output.
type SSSPResult struct {
	Dist  []float64
	Stats *bsp.Stats
}

type ssspValue struct{ dist float64 }

type ssspProgram struct{ src VertexID }

func (p *ssspProgram) Init(g *graph.Graph, id VertexID) ssspValue {
	if id == p.src {
		return ssspValue{dist: 0}
	}
	return ssspValue{dist: math.Inf(1)}
}

func (p *ssspProgram) Compute(ctx *pregel.Context[ssspValue, float64], msgs []float64) {
	v := ctx.Value()
	improved := ctx.Superstep() == 0 && ctx.ID() == p.src
	for _, m := range msgs {
		if m < v.dist {
			v.dist = m
			improved = true
		}
	}
	if improved {
		ctx.ForEachOut(func(dst VertexID, w float64) {
			ctx.SendTo(dst, v.dist+w)
		})
	}
	ctx.VoteToHalt()
}

func (p *ssspProgram) StateUnits(v *ssspValue) int64 { return 1 }

// SSSP runs the Pregel-paper Bellman–Ford style single-source shortest
// path algorithm (Table 1 row 16: O(mn) worst-case work vs. Dijkstra's
// near-linear bound). Weights must be non-negative.
func SSSP(g *graph.Graph, src VertexID, cfg Config) (*SSSPResult, error) {
	return PrepareSSSP(g, src, cfg)()
}

// PrepareSSSP is the job-scoped form of SSSP: the engine is
// constructed (and the snapshot pinned) now, under whatever lock the
// caller holds; the returned closure runs lock-free.
func PrepareSSSP(g *graph.Graph, src VertexID, cfg Config) func() (*SSSPResult, error) {
	run := ssspPregel(g, Args{Src: src}, Env{Config: cfg})
	return func() (*SSSPResult, error) {
		dist, stats, err := run()
		if err != nil {
			return nil, err
		}
		return &SSSPResult{Dist: dist, Stats: stats}, nil
	}
}

// ssspPregel is the (sssp, pregel) matrix row.
func ssspPregel(g *graph.Graph, a Args, env Env) Run {
	ecfg := pregelConfig[float64](env)
	// SSSP sends a distinct distance per edge (SendTo, never a
	// broadcast), so a pulled superstep would find no broadcast slots
	// and waste an O(n+m) transpose scan. Pin the push path.
	ecfg.Mode = runtime.DirectionPush
	if !env.NoCombiner {
		ecfg.Combiner = func(a, b float64) float64 {
			if a < b {
				return a
			}
			return b
		}
	}
	eng := pregel.NewEngine[ssspValue, float64](g, &ssspProgram{src: a.Src}, ecfg)
	return func() ([]float64, *bsp.Stats, error) {
		res, err := eng.Run()
		dist := make([]float64, len(res.Values))
		for v, val := range res.Values {
			dist[v] = val.dist
		}
		return dist, res.Stats, err
	}
}
