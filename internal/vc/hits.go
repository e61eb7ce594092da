package vc

import (
	"math"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// HITS (hubs and authorities, Kleinberg): the other classic
// eigenvector ranking next to PageRank, and a natural demonstration of
// Pregel aggregators — each half-iteration needs the global L2 norm of
// the scores, which the master computes from a sum aggregator and
// publishes as a global. One HITS iteration spans four supersteps:
//
//	0: hubs send their score along out-edges (authority gathering)
//	1: authorities sum, aggregate the squared norm
//	2: authorities send normalized scores along in-edges (hub gathering)
//	3: hubs sum, aggregate the squared norm
//
// K iterations on a directed graph.

// HITSResult holds the hub and authority scores (L2-normalized).
type HITSResult struct {
	Hub, Auth []float64
	Stats     *bsp.Stats
}

type hitsValue struct {
	hub, auth float64
}

type hitsProgram struct {
	k int
	// master state
	norm float64
}

func (p *hitsProgram) Init(g *graph.Graph, id VertexID) hitsValue {
	return hitsValue{hub: 1, auth: 1}
}

func (p *hitsProgram) BeforeSuperstep(mc *pregel.MasterContext) {
	phase := mc.Superstep() % 4
	if phase == 2 || phase == 0 {
		if sq, ok := mc.Agg("norm").(float64); ok && sq > 0 {
			p.norm = math.Sqrt(sq)
		} else {
			p.norm = 1
		}
	}
	mc.SetGlobal("norm", p.norm)
	if mc.Superstep() >= 4*p.k {
		mc.Halt()
	}
}

func (p *hitsProgram) Compute(ctx *pregel.Context[hitsValue, float64], msgs []float64) {
	v := ctx.Value()
	switch ctx.Superstep() % 4 {
	case 0:
		// Normalize hubs from the previous iteration's norm, then push
		// hub scores to out-neighbors.
		if n := ctx.Global("norm").(float64); n > 0 {
			v.hub /= n
		}
		for _, e := range ctx.OutEdges() {
			ctx.SendTo(e.Dst, v.hub)
		}
	case 1:
		v.auth = 0
		for _, m := range msgs {
			v.auth += m
		}
		ctx.Aggregate("norm", v.auth*v.auth)
	case 2:
		if n := ctx.Global("norm").(float64); n > 0 {
			v.auth /= n
		}
		for _, e := range ctx.InEdges() {
			ctx.SendTo(e.Dst, v.auth)
		}
	case 3:
		v.hub = 0
		for _, m := range msgs {
			v.hub += m
		}
		ctx.Aggregate("norm", v.hub*v.hub)
	}
}

func (p *hitsProgram) StateUnits(v *hitsValue) int64 { return 2 }

// HITS runs k iterations of hub/authority scoring on a directed graph.
func HITS(g *graph.Graph, k int, cfg Config) (*HITSResult, error) {
	if !g.Directed {
		return nil, errNotDirected
	}
	g.EnsureIn()
	prog := &hitsProgram{k: k}
	ecfg := pregelConfig[float64](Env{Config: cfg})
	if ecfg.MaxSupersteps == 0 {
		ecfg.MaxSupersteps = 4*k + 8
	}
	eng := pregel.NewEngine[hitsValue, float64](g, prog, ecfg)
	eng.RegisterAggregator("norm", pregel.SumFloat64())
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &HITSResult{
		Hub:   make([]float64, g.N()),
		Auth:  make([]float64, g.N()),
		Stats: res.Stats,
	}
	// Final normalization to unit L2 for both vectors.
	var hs, as float64
	for _, val := range res.Values {
		hs += val.hub * val.hub
		as += val.auth * val.auth
	}
	hn, an := math.Sqrt(hs), math.Sqrt(as)
	if hn == 0 {
		hn = 1
	}
	if an == 0 {
		an = 1
	}
	for v, val := range res.Values {
		out.Hub[v] = val.hub / hn
		out.Auth[v] = val.auth / an
	}
	return out, nil
}
