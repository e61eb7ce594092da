package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// k-core decomposition, the distributed algorithm of Montresor et al.:
// every vertex maintains a coreness upper bound, initially its degree,
// and repeatedly lowers it to the largest k such that at least k
// neighbors still claim a bound ≥ k (a local h-index over the
// neighbors' estimates). The estimates decrease monotonically and
// converge to the exact coreness. A natural fit for the vertex-centric
// model — included as an extension beyond Table 1 to round out the
// workload set the paper's §3.8 discusses.

// KCoreResult holds the coreness of every vertex and the degeneracy
// (maximum coreness).
type KCoreResult struct {
	Core       []int32
	Degeneracy int32
	Stats      *bsp.Stats
}

type kcoreMsg struct {
	From VertexID
	Est  int32
}

type kcoreValue struct {
	est    int32
	nbrEst map[VertexID]int32
}

type kcoreProgram struct{}

func (kcoreProgram) Init(g *graph.Graph, id VertexID) kcoreValue {
	return kcoreValue{est: int32(g.Degree(id))}
}

// hIndex returns the largest k such that at least k of the capped
// neighbor estimates are ≥ k.
func hIndex(own int32, ests map[VertexID]int32) int32 {
	counts := make([]int32, own+1)
	for _, e := range ests {
		if e > own {
			e = own
		}
		if e > 0 {
			counts[e]++
		}
	}
	var cum int32
	for k := own; k >= 1; k-- {
		cum += counts[k]
		if cum >= k {
			return k
		}
	}
	return 0
}

func (kcoreProgram) Compute(ctx *pregel.Context[kcoreValue, kcoreMsg], msgs []kcoreMsg) {
	v := ctx.Value()
	if ctx.Superstep() == 0 {
		v.nbrEst = make(map[VertexID]int32, ctx.OutDegree())
		// Until a neighbor reports, assume the most optimistic bound.
		deg := int32(ctx.Degree())
		ctx.ForEachOut(func(dst VertexID, _ float64) {
			v.nbrEst[dst] = deg
		})
		ctx.SendToNeighbors(kcoreMsg{From: ctx.ID(), Est: v.est})
		return // everyone re-evaluates at superstep 1
	}
	for _, m := range msgs {
		v.nbrEst[m.From] = m.Est
	}
	ctx.Charge(int64(len(v.nbrEst)))
	if newEst := hIndex(v.est, v.nbrEst); newEst < v.est {
		v.est = newEst
		ctx.SendToNeighbors(kcoreMsg{From: ctx.ID(), Est: v.est})
	}
	ctx.VoteToHalt()
}

func (kcoreProgram) StateUnits(v *kcoreValue) int64 { return int64(1 + len(v.nbrEst)) }

// KCore computes the coreness of every vertex of an undirected graph.
func KCore(g *graph.Graph, cfg Config) (*KCoreResult, error) {
	return PrepareKCore(g, cfg)()
}

// PrepareKCore is the job-scoped form of KCore: the engine is
// constructed (and the snapshot pinned) now, under whatever lock the
// caller holds; the returned closure runs lock-free.
func PrepareKCore(g *graph.Graph, cfg Config) func() (*KCoreResult, error) {
	run := kcorePregel(g, Args{}, nil, Env{Config: cfg})
	return func() (*KCoreResult, error) {
		core, stats, err := run()
		if err != nil {
			return nil, err
		}
		out := &KCoreResult{Core: core, Stats: stats}
		for _, est := range core {
			out.Degeneracy = max(out.Degeneracy, est)
		}
		return out, nil
	}
}

// kcorePregel is the (kcore, pregel) matrix row over integer coreness
// (see integers), dense or bit-packed by env.PackedState. Coreness
// estimates have no sound warm start, so the seed is unused.
func kcorePregel(g *graph.Graph, _ Args, _ []int32, env Env) func() ([]int32, *bsp.Stats, error) {
	ecfg := pregelCfg[kcoreMsg](env)
	if env.PackedState {
		prog := newKCorePackedProgram(g)
		eng := pregel.NewEngine[kcorePackedValue, kcoreMsg](g, prog, ecfg)
		return func() ([]int32, *bsp.Stats, error) {
			res, err := eng.Run()
			core := make([]int32, len(res.Values))
			for v := range core {
				core[v] = int32(prog.est.Get(v))
			}
			return core, res.Stats, err
		}
	}
	eng := pregel.NewEngine[kcoreValue, kcoreMsg](g, kcoreProgram{}, ecfg)
	return func() ([]int32, *bsp.Stats, error) {
		res, err := eng.Run()
		core := make([]int32, len(res.Values))
		for v, val := range res.Values {
			core[v] = val.est
		}
		return core, res.Stats, err
	}
}
