package vc

import (
	"math"

	"vcgraph/internal/async"
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
)

// Unreachable is the finite spelling of an unreachable distance where
// +Inf cannot go: the serving layer puts it on the wire in place of
// the engines' +Inf, because JSON cannot carry +Inf, and so a Prior
// built from a served result may hold it. Inside the engines
// unreachable is +Inf; an inc row translates its Prior once, when it
// starts.
const Unreachable = 1e308

// ssspInc computes (or incrementally repairs) single-source shortest
// paths. The delta view is pinned and the seed analysis done now; the
// returned Run drains the worklist lock-free.
//
// Seeding: an inserted edge can only shorten distances, so its
// endpoints re-relax and propagate. A deleted edge can lengthen them —
// label-correcting cannot raise a settled value, so every distance the
// deletion might have supported is invalidated first: starting from
// endpoints whose recorded distance is tight through a deleted edge
// (dist == other endpoint's dist + logged weight), the invalidation
// closure follows tight edges of the *new* graph (dist[z] == dist[x]+w
// with x already invalid), computed against the prior distances. The
// closure is reset to +inf and re-relaxed along with its current
// neighborhood. Over-invalidation is harmless — re-relaxation restores
// any value that was still achievable — and the closure provably
// contains every vertex whose recorded distance became unachievable:
// such a distance was produced by a chain of tight edges from the
// source that now crosses a deleted edge.
func ssspInc(g *graph.Graph, a Args, env Env) Run {
	pr, err := env.engine().Prepare(g, incDefaults("vc: incremental sssp"))
	if err != nil {
		return failed(err)
	}
	view := pr.Delta
	n := view.N()
	var dist []float64 // nil: the source-only cold start
	var seeds []VertexID
	cold := true
	if p := env.Prior; p != nil && p.Values != nil && p.Args.Src == a.Src && len(p.Values) == n {
		if muts, ok := g.MutationsSince(p.Epoch); ok {
			cold = false
			dist = make([]float64, n)
			for v, d := range p.Values {
				if d >= Unreachable {
					d = math.Inf(1)
				}
				dist[v] = d
			}
			seeds = seedSSSP(view, dist, a.Src, muts)
		}
	}
	if cold {
		seeds = async.Every(make([]VertexID, n))
	}
	run := async.PrepareSeeded(g, async.SSSPProgram(a.Src, dist), pr, seeds)
	return func() ([]float64, *bsp.Stats, error) {
		res, err := run()
		if err != nil {
			return nil, res.Stats, err
		}
		return keep(env, Prior{Epoch: view.Epoch(), Args: a, Values: res.Values, Cold: cold}), res.Stats, nil
	}
}

// seedSSSP computes the invalidation closure of the deletions against
// the prior distances, resets it to +inf, and returns the activation
// seeds: the closure, its current neighborhood, and insert endpoints.
// dist is modified in place from the prior distances.
func seedSSSP(view *graph.DeltaCSR, dist []float64, src VertexID, muts []graph.Mutation) []VertexID {
	var seeds []VertexID
	invalid := make(map[VertexID]bool)
	var frontier []VertexID
	mark := func(v VertexID) {
		if v != src && !invalid[v] {
			invalid[v] = true
			frontier = append(frontier, v)
		}
	}
	for _, m := range muts {
		switch m.Op {
		case graph.InsertEdge:
			seeds = append(seeds, m.U, m.V)
		case graph.DeleteEdge:
			// The logged weight is the weight actually removed, so the
			// tightness test reconstructs the deleted edge exactly.
			if dist[m.V] == dist[m.U]+m.W {
				mark(m.V)
			}
			if dist[m.U] == dist[m.V]+m.W {
				mark(m.U)
			}
		}
	}
	// Propagate invalidation through tight edges of the current graph:
	// z's recorded distance may be supported by x's, which is gone.
	for len(frontier) > 0 {
		x := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		view.ForEachOut(x, func(z VertexID, w float64) {
			if !invalid[z] && dist[z] == dist[x]+w {
				mark(z)
			}
		})
	}
	for v := range invalid {
		dist[v] = math.Inf(1)
	}
	// Activate the closure and its current neighbors (the neighbors
	// hold the valid distances re-relaxation pulls from; the closure's
	// own updates then flood outward as needed). Map iteration order is
	// irrelevant: the FIFO dedups and the fixpoint is schedule-free,
	// but the seed list must be deterministic for fault replay — so
	// collect in vertex order.
	if len(invalid) > 0 {
		for v := 0; v < len(dist); v++ {
			if !invalid[VertexID(v)] {
				continue
			}
			seeds = append(seeds, VertexID(v))
			view.ForEachOut(VertexID(v), func(z VertexID, _ float64) {
				seeds = append(seeds, z)
			})
		}
	}
	return seeds
}
