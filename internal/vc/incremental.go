// Incremental maintenance for the monotone vertex programs on evolving
// graphs: instead of recomputing from scratch after every mutation
// batch, a prior job's converged state is repaired by re-activating
// only the vertices the graph delta could have affected. The inc rows
// of the engine matrix (ccInc, ssspInc) are the incremental engine:
// a seed analysis and then the async engine's own program
// (async.CCProgram, async.SSSPProgram), drained from the seeds against
// a pinned graph.DeltaCSR view (async.PrepareSeeded).
//
// The correctness contract is strict: an incremental run converges to a
// result byte-identical to a from-scratch run on the mutated graph.
// That holds because CC and SSSP compute the unique fixpoint of a
// monotone operator (min member ID per component; min path-sum per
// vertex) whose value does not depend on the update schedule — the seed
// analysis only has to re-activate a superset of the vertices whose
// fixpoint value changed. PageRank has no such fixpoint and no inc row.
//
// Each row resumes from Env.Prior, which records the graph epoch its
// values are valid for; Graph.MutationsSince(epoch) supplies the delta.
// If the history is unavailable — out-of-band mutation, truncated log,
// changed args — the run falls back to a cold start (Prior.Cold), which
// is itself the from-scratch baseline the differential suite compares
// against.
package vc

import (
	"vcgraph/internal/async"
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// incDefaults are the incremental engine's: sequential, an update cap
// of 200·(n+64), the graph's delta view pinned. CC and SSSP drain the
// async engine's worklist, so MaxSupersteps caps updates and
// CheckpointEvery sets the epoch (64 updates when unset), exactly as in
// the async engine.
func incDefaults(name string) rt.EngineDefaults {
	return rt.EngineDefaults{Name: name, Cap: func(n int) int { return 200 * (n + 64) }, Delta: true}
}

// keep hands the state a successful inc run leaves to the next run
// through env.Prior (nil keeps nothing) and returns its values.
func keep(env Env, p Prior) []float64 {
	if env.Prior != nil {
		*env.Prior = p
	}
	return p.Values
}

// failed is a Run that fails with err before anything ran.
func failed(err error) Run {
	return func() ([]float64, *bsp.Stats, error) { return nil, nil, err }
}

// --- Incremental connected components (hash-min) ---

// ccInc computes (or incrementally repairs) hash-min connected
// component labels. The delta view is pinned and the seed analysis done
// now (under the caller's graph lock); the returned Run drains the
// worklist lock-free and unpins.
//
// Seeding: an inserted edge re-activates its endpoints (min-label
// propagation pulls, so an endpoint adopting a smaller label re-floods
// it). A deleted edge may split a component, and hash-min cannot raise
// a label — so every vertex whose prior label matches a deleted edge's
// endpoint labels is re-seeded to its own ID and activated (the
// affected component only). Resetting a whole prior label class is
// what makes multi-batch windows safe: any stale too-small label must
// be the prior minimum of a component some deletion touched, and that
// entire class is reset.
func ccInc(g *graph.Graph, a Args, env Env) Run {
	pr, err := env.engine().Prepare(g, incDefaults("vc: incremental cc"))
	if err != nil {
		return failed(err)
	}
	view := pr.Delta
	n := view.N()
	var labels, seeds []VertexID // labels nil: the identity cold start
	cold := true
	if p := env.Prior; p != nil && p.Values != nil && len(p.Values) == n {
		if muts, ok := g.MutationsSince(p.Epoch); ok {
			cold = false
			labels = ints[VertexID](p.Values)
			seeds = seedCC(labels, muts)
		}
	}
	if cold {
		seeds = async.Every(make([]VertexID, n))
	}
	run := async.PrepareSeeded(g, async.CCProgram(labels), pr, seeds)
	return func() ([]float64, *bsp.Stats, error) {
		res, err := run()
		if err != nil {
			return nil, res.Stats, err
		}
		return keep(env, Prior{Epoch: view.Epoch(), Args: a, Values: floats(res.Values), Cold: cold}), res.Stats, nil
	}
}

// seedCC resets the prior label classes struck by deletions and
// collects the activation seeds (reset vertices + insert endpoints).
// labels is modified in place from the prior labels.
func seedCC(labels []VertexID, muts []graph.Mutation) []VertexID {
	var seeds []VertexID
	affected := make(map[VertexID]bool)
	for _, m := range muts {
		switch m.Op {
		case graph.InsertEdge:
			seeds = append(seeds, m.U, m.V)
		case graph.DeleteEdge:
			// Both endpoints' prior classes: in a converged prior state
			// they coincide, but the deleted edge may have been
			// inserted after prior converged, bridging two classes.
			affected[labels[m.U]] = true
			affected[labels[m.V]] = true
		}
	}
	if len(affected) > 0 {
		for w := range labels {
			if affected[labels[w]] {
				labels[w] = VertexID(w)
				seeds = append(seeds, VertexID(w))
			}
		}
	}
	return seeds
}
