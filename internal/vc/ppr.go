package vc

import (
	"sort"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Personalized PageRank by Monte Carlo random walks — the engine
// behind link prediction, one of the workloads §3.8(4) lists as an
// open question for vertex-centric systems. The Pregel formulation is
// natural and message-heavy: every walk is a message; each superstep
// every in-flight walk either terminates at its current vertex (with
// the restart probability) or forwards itself to a uniformly random
// neighbor. The fraction of walks terminating at v estimates the
// personalized PageRank ppr_s(v) for walk lengths ~ Geometric(c).

// PPRResult holds the estimated personalized PageRank scores for one
// source.
type PPRResult struct {
	Scores []float64 // sums to ~1 over reachable vertices
	Walks  int
	Stats  *bsp.Stats
}

type pprValue struct {
	ended int64
}

type pprProgram struct {
	src     VertexID
	walks   int
	restart float64
	maxLen  int
}

func (p *pprProgram) Init(g *graph.Graph, id VertexID) pprValue { return pprValue{} }

func (p *pprProgram) Compute(ctx *pregel.Context[pprValue, int8], msgs []int8) {
	v := ctx.Value()
	rng := ctx.Rand()
	walkCount := len(msgs)
	if ctx.Superstep() == 0 {
		if ctx.ID() != p.src {
			ctx.VoteToHalt()
			return
		}
		walkCount = p.walks
	}
	adj := ctx.OutEdges()
	for i := 0; i < walkCount; i++ {
		// Terminate with the restart probability, at a dangling vertex,
		// or when the walk hits the length cap (superstep bound).
		if len(adj) == 0 || ctx.Superstep() >= p.maxLen || rng.Float64() < p.restart {
			v.ended++
			continue
		}
		ctx.SendTo(adj[rng.Intn(len(adj))].Dst, 0)
	}
	ctx.VoteToHalt()
}

func (p *pprProgram) StateUnits(v *pprValue) int64 { return 1 }

// PersonalizedPageRank estimates ppr from src with `walks` random
// walks and restart probability c (typical 0.15). Deterministic for a
// given Config.Seed.
func PersonalizedPageRank(g *graph.Graph, src VertexID, walks int, c float64, cfg Config) (*PPRResult, error) {
	if walks <= 0 {
		walks = 10000
	}
	prog := &pprProgram{src: src, walks: walks, restart: c, maxLen: 128}
	ecfg := pregelConfig[int8](Env{Config: cfg})
	if ecfg.MaxSupersteps == 0 {
		ecfg.MaxSupersteps = prog.maxLen + 8
	}
	eng := pregel.NewEngine[pprValue, int8](g, prog, ecfg)
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &PPRResult{Scores: make([]float64, g.N()), Walks: walks, Stats: res.Stats}
	for v, val := range res.Values {
		out.Scores[v] = float64(val.ended) / float64(walks)
	}
	return out, nil
}

// LinkPrediction ranks the non-neighbors of src by personalized
// PageRank — the classic PPR link predictor — returning the top k
// candidate endpoints.
func LinkPrediction(g *graph.Graph, src VertexID, k, walks int, cfg Config) ([]VertexID, *PPRResult, error) {
	ppr, err := PersonalizedPageRank(g, src, walks, 0.15, cfg)
	if err != nil {
		return nil, nil, err
	}
	existing := map[VertexID]bool{src: true}
	for _, e := range g.Out[src] {
		existing[e.Dst] = true
	}
	type cand struct {
		v VertexID
		s float64
	}
	var cands []cand
	for v, s := range ppr.Scores {
		if s > 0 && !existing[VertexID(v)] {
			cands = append(cands, cand{VertexID(v), s})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].s != cands[j].s {
			return cands[i].s > cands[j].s
		}
		return cands[i].v < cands[j].v
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]VertexID, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].v
	}
	return out, ppr, nil
}
