package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	"vcgraph/internal/pregel"
	"vcgraph/internal/runtime"
)

// k-core decomposition, the distributed algorithm of Montresor et al.:
// every vertex maintains a coreness upper bound, initially its degree,
// and repeatedly lowers it to the largest k such that at least k
// neighbors still claim a bound ≥ k (a local h-index over the
// neighbors' estimates). The estimates decrease monotonically and
// converge to the exact coreness. A natural fit for the vertex-centric
// model — included as an extension beyond Table 1 to round out the
// workload set the paper's §3.8 discusses.
//
// The vertex state lives in two StateStores, flat or bit-packed by
// Config.PackedState: est holds each vertex's bound, and hist holds a
// histogram per vertex of its neighbors' estimates capped at its own
// bound — hist[offs[v]+k], for k up to that bound (≤ deg(v)), counts the
// adjacency entries whose last report, capped, is k. A message carries the
// sender's estimate transition, so a receipt moves one count between
// two buckets in O(1), and the h-index is a scan down from the own
// bound that folds the buckets above a lowered bound into it: O(d(v))
// compute per superstep with no map and no allocation (BPPA P2).
// Parallel edges are adjacency entries like any other, which is how
// seq.KCore counts them too.

// KCoreResult holds the coreness of every vertex and the degeneracy
// (maximum coreness).
type KCoreResult struct {
	Core       []int32
	Degeneracy int32
	Stats      *bsp.Stats
}

// kcoreMsg is one neighbor's estimate dropping from Old to New. Old is
// −1 on the superstep-0 report, which replaces the optimistic initial
// assumption.
type kcoreMsg struct{ Old, New int32 }

// kcoreValue is read-only: the degree backs StateUnits, the P1 evidence
// (one bound plus one estimate per neighbor).
type kcoreValue struct{ deg int32 }

type kcoreProgram struct {
	est, hist StateStore // both over [0, Δ]
	offs      []int      // v's buckets are hist[offs[v] .. offs[v+1])
}

func newKCoreProgram(g *graph.Graph, packed bool) *kcoreProgram {
	n := g.N()
	offs := runtime.TakeArray[int](n + 1)
	maxDeg := 0
	for v := 0; v < n; v++ {
		d := g.Degree(VertexID(v))
		offs[v+1] = offs[v] + d + 1
		maxDeg = max(maxDeg, d)
	}
	domain := uint64(maxDeg) + 1
	p := &kcoreProgram{
		est:  NewStateStore(packed, n, domain),
		hist: NewStateStore(packed, offs[n], domain),
		offs: offs,
	}
	for v := 0; v < n; v++ {
		p.est.Set(v, uint64(p.deg(v)))
	}
	return p
}

// release gives the stores' arrays and offs back to the run-buffer
// cache once the run's core numbers have been read.
func (p *kcoreProgram) release() {
	keepStateStore(p.est)
	keepStateStore(p.hist)
	runtime.KeepArray(p.offs)
}

func (p *kcoreProgram) deg(v int) int { return p.offs[v+1] - p.offs[v] - 1 }

func (p *kcoreProgram) Init(g *graph.Graph, id VertexID) kcoreValue {
	return kcoreValue{deg: int32(p.deg(int(id)))}
}

func (p *kcoreProgram) Compute(ctx *pregel.Context[kcoreValue, kcoreMsg], msgs []kcoreMsg) {
	v := int(ctx.ID())
	base, own := p.offs[v], int(p.est.Get(v))
	if ctx.Superstep() == 0 {
		// Until a neighbor reports, assume the most optimistic bound:
		// every adjacency entry counts at the vertex's own degree.
		for k := 0; k < own; k++ {
			p.hist.Set(base+k, 0)
		}
		p.hist.Set(base+own, uint64(own))
		ctx.SendToNeighbors(kcoreMsg{Old: -1, New: int32(own)})
		return // everyone re-evaluates at superstep 1
	}
	for _, m := range msgs {
		from, to := own, min(int(m.New), own)
		if m.Old >= 0 {
			from = min(int(m.Old), own)
		}
		if from != to {
			p.hist.Set(base+from, p.hist.Get(base+from)-1)
			p.hist.Set(base+to, p.hist.Get(base+to)+1)
		}
	}
	ctx.Charge(int64(p.deg(v)))
	// h-index: the largest k with at least k capped estimates ≥ k.
	k, cum := own, uint64(0)
	for ; k >= 1; k-- {
		if cum += p.hist.Get(base + k); cum >= uint64(k) {
			break
		}
	}
	if k < own {
		// Fold the buckets above the new bound into it. Nothing reads
		// above the bound again (the scan starts there and receipts are
		// capped at it), and the scan never reads bucket 0.
		p.hist.Set(base+k, cum)
		p.est.Set(v, uint64(k))
		ctx.SendToNeighbors(kcoreMsg{Old: int32(own), New: int32(k)})
	}
	ctx.VoteToHalt()
}

func (p *kcoreProgram) StateUnits(v *kcoreValue) int64 { return int64(1 + v.deg) }

// kcoreSnap is one checkpoint generation of the two stores.
type kcoreSnap struct{ est, hist StateStore }

func (s kcoreSnap) SizeBytes() int { return s.est.SizeBytes() + s.hist.SizeBytes() }

// Snapshot/Restore implement pregel.Snapshotter.
func (p *kcoreProgram) Snapshot() any {
	return kcoreSnap{est: p.est.Clone(), hist: p.hist.Clone()}
}

func (p *kcoreProgram) Restore(s any) {
	snap := s.(kcoreSnap)
	p.est.CopyFrom(snap.est)
	p.hist.CopyFrom(snap.hist)
}

// KCore computes the coreness of every vertex of an undirected graph.
func KCore(g *graph.Graph, cfg Config) (*KCoreResult, error) {
	return PrepareKCore(g, cfg)()
}

// PrepareKCore is the job-scoped form of KCore: the engine is
// constructed (and the snapshot pinned) now, under whatever lock the
// caller holds; the returned closure runs lock-free.
func PrepareKCore(g *graph.Graph, cfg Config) func() (*KCoreResult, error) {
	run := kcorePregel(g, Args{}, Env{Config: cfg})
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
// (see integers), over flat or bit-packed stores by env.PackedState.
// A directed graph is refused: a vertex would hear from its
// in-neighbors but count its out-neighbors.
func kcorePregel(g *graph.Graph, _ Args, env Env) func() ([]int32, *bsp.Stats, error) {
	if g.Directed {
		return refuseDirected[int32](plan.EnginePregel)
	}
	prog := newKCoreProgram(g, env.PackedState)
	eng := pregel.NewEngine[kcoreValue, kcoreMsg](g, prog, pregelConfig[kcoreMsg](env))
	return func() ([]int32, *bsp.Stats, error) {
		res, err := eng.Run()
		core := make([]int32, len(res.Values))
		for v := range core {
			core[v] = int32(prog.est.Get(v))
		}
		prog.release()
		return core, res.Stats, err
	}
}
