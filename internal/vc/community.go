package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Community detection by synchronous label propagation — one of the
// workloads §3.8 lists as an open question for vertex-centric systems
// ("modularity optimization for community detection"). This is the
// straightforward Pregel formulation: every vertex repeatedly adopts
// the most frequent label among its neighbors (ties to the smallest
// label). Synchronous updates can oscillate on bipartite-ish
// structures, so the run is capped at maxRounds and also stops at the
// first fixpoint — both behaviours are part of what makes the workload
// awkward in this model, and the harness measures them.

// CommunityResult holds the final label per vertex and the modularity
// of the induced partition.
type CommunityResult struct {
	Label      []VertexID
	Modularity float64
	Rounds     int
	Stats      *bsp.Stats
}

type lpaValue struct {
	label VertexID
}

type lpaProgram struct {
	maxRounds int
}

func (p *lpaProgram) Init(g *graph.Graph, id VertexID) lpaValue {
	return lpaValue{label: id}
}

func (p *lpaProgram) BeforeSuperstep(mc *pregel.MasterContext) {
	if mc.Superstep() == 0 {
		return
	}
	changed, _ := mc.Agg("changed").(bool)
	if !changed && mc.Superstep() > 1 {
		mc.Halt()
		return
	}
	if mc.Superstep() > p.maxRounds {
		mc.Halt()
	}
}

func (p *lpaProgram) Compute(ctx *pregel.Context[lpaValue, VertexID], msgs []VertexID) {
	v := ctx.Value()
	if ctx.Superstep() == 0 {
		ctx.SendToNeighbors(v.label)
		return
	}
	if len(msgs) > 0 {
		counts := make(map[VertexID]int, len(msgs))
		best, bestN := v.label, 0
		for _, m := range msgs {
			counts[m]++
			c := counts[m]
			if c > bestN || (c == bestN && m < best) {
				best, bestN = m, c
			}
		}
		ctx.Charge(int64(len(msgs)))
		if best != v.label {
			v.label = best
			ctx.Aggregate("changed", true)
		}
	}
	// Labels are rebroadcast every round (neighbors need the current
	// histogram even if this vertex did not change).
	ctx.SendToNeighbors(v.label)
}

func (p *lpaProgram) StateUnits(v *lpaValue) int64 { return 1 }

// LabelPropagation runs synchronous LPA for at most maxRounds rounds
// (0 = default 32) and reports the partition with its modularity.
func LabelPropagation(g *graph.Graph, maxRounds int, cfg Config) (*CommunityResult, error) {
	if maxRounds <= 0 {
		maxRounds = 32
	}
	prog := &lpaProgram{maxRounds: maxRounds}
	ecfg := pregelConfig[VertexID](Env{Config: cfg})
	if ecfg.MaxSupersteps == 0 {
		ecfg.MaxSupersteps = maxRounds + 8
	}
	eng := pregel.NewEngine[lpaValue, VertexID](g, prog, ecfg)
	eng.RegisterAggregator("changed", pregel.BoolOr())
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &CommunityResult{
		Label:  make([]VertexID, g.N()),
		Rounds: res.Supersteps,
		Stats:  res.Stats,
	}
	for v, val := range res.Values {
		out.Label[v] = val.label
	}
	out.Modularity = Modularity(g, out.Label)
	return out, nil
}

// Modularity computes Newman's modularity Q of a partition of an
// undirected graph: Q = Σ_c (e_c/m − (deg_c/2m)²), where e_c is the
// number of intra-community edges and deg_c the community's total
// degree.
func Modularity(g *graph.Graph, label []VertexID) float64 {
	m := float64(g.M())
	if m == 0 {
		return 0
	}
	intra := map[VertexID]float64{}
	deg := map[VertexID]float64{}
	for u := range g.Out {
		deg[label[u]] += float64(len(g.Out[u]))
		for _, e := range g.Out[u] {
			if VertexID(u) < e.Dst && label[u] == label[e.Dst] {
				intra[label[u]]++
			}
		}
	}
	var q float64
	for _, ec := range intra {
		q += ec / m
	}
	for _, dc := range deg {
		q -= (dc / (2 * m)) * (dc / (2 * m))
	}
	return q
}
