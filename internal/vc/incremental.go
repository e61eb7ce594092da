// Incremental maintenance for the monotone vertex programs on evolving
// graphs: instead of recomputing from scratch after every mutation
// batch, a prior job's converged state is repaired by re-activating
// only the vertices the graph delta could have affected. CC and SSSP
// are a seed analysis and then the async engine's own program
// (async.CCProgram, async.SSSPProgram), drained from the seeds against
// a pinned graph.DeltaCSR view (async.PrepareSeeded).
//
// The correctness contract is strict: an incremental run converges to a
// result byte-identical to a from-scratch run on the mutated graph.
// For CC and SSSP that holds because both compute the unique fixpoint
// of a monotone operator (min member ID per component; min path-sum per
// vertex) whose value does not depend on the update schedule — the seed
// analysis only has to re-activate a superset of the vertices whose
// fixpoint value changed. PageRank's eps-thresholded fixpoint is
// schedule-dependent in its low bits, so incremental PageRank instead
// memoizes a fixed-K power iteration (incremental_pagerank.go) and is
// byte-identical by construction.
//
// Each incremental state records the graph epoch it is valid for;
// Graph.MutationsSince(epoch) supplies the delta. If the history is
// unavailable — out-of-band mutation, truncated log, stale parameters —
// the run falls back to a cold start (Cold=true on the returned state),
// which is itself the from-scratch baseline the differential suite
// compares against.
package vc

import (
	"vcgraph/internal/async"
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// IncConfig is the incremental engine's run environment, the one every
// engine shares (runtime.EngineConfig states what each field means
// here): CC and SSSP drain the async engine's sequential worklist, so
// MaxSupersteps caps updates and CheckpointEvery sets the epoch (64
// updates when unset), exactly as in the async engine; a job needs a
// share of 1.
type IncConfig = rt.EngineConfig

// ErrIncrementalDirected rejects incremental CC/SSSP on directed
// graphs. It is the async programs' own refusal: their updates pull
// over out-spans, which equal the in-neighborhood only for undirected
// graphs.
var ErrIncrementalDirected = async.ErrDirected

// incDefaults are the incremental engine's: sequential, an update cap
// of 200·(n+64), the graph's delta view pinned.
func incDefaults(name string) rt.EngineDefaults {
	return rt.EngineDefaults{Name: name, Cap: func(n int) int { return 200 * (n + 64) }, Delta: true}
}

// --- Incremental connected components (hash-min) ---

// IncCCState is the persistent state of incremental CC: the converged
// min-member labels and the graph epoch they are valid for. Cold
// reports whether the run that produced it had to recompute from
// scratch (no usable prior state or history).
type IncCCState struct {
	Epoch  int64
	Labels []VertexID
	Cold   bool
}

// IncrementalCC computes (or incrementally repairs) hash-min connected
// component labels. IncrementalCC is PrepareIncrementalCC(g, prior, cfg)().
func IncrementalCC(g *graph.Graph, prior *IncCCState, cfg IncConfig) (*IncCCState, *bsp.Stats, error) {
	return PrepareIncrementalCC(g, prior, cfg)()
}

// PrepareIncrementalCC splits the run in two, like every engine's
// Prepare form: the delta view is pinned and the seed analysis done now
// (under the caller's graph lock), the returned closure drains the
// worklist lock-free and unpins.
//
// Seeding: an inserted edge re-activates its endpoints (min-label
// propagation pulls, so an endpoint adopting a smaller label re-floods
// it). A deleted edge may split a component, and hash-min cannot raise
// a label — so every vertex whose prior label matches a deleted edge's
// endpoint labels is re-seeded to its own ID and activated (the
// affected component only, per the tentpole). Resetting a whole prior
// label class is what makes multi-batch windows safe: any stale
// too-small label must be the prior minimum of a component some
// deletion touched, and that entire class is reset.
func PrepareIncrementalCC(g *graph.Graph, prior *IncCCState, cfg IncConfig) func() (*IncCCState, *bsp.Stats, error) {
	pr, err := cfg.Prepare(g, incDefaults("vc: incremental cc"))
	if err != nil {
		return func() (*IncCCState, *bsp.Stats, error) { return nil, nil, err }
	}
	view := pr.Delta
	n := view.N()
	var labels, seeds []VertexID // labels nil: the identity cold start
	cold := true
	if prior != nil && len(prior.Labels) == n {
		if muts, ok := g.MutationsSince(prior.Epoch); ok {
			cold = false
			labels = append([]VertexID(nil), prior.Labels...)
			seeds = seedCC(labels, muts)
		}
	}
	if cold {
		seeds = async.Every(n)
	}
	run := async.PrepareSeeded(g, async.CCProgram(labels), pr, seeds)
	return func() (*IncCCState, *bsp.Stats, error) {
		res, err := run()
		if err != nil {
			return nil, res.Stats, err
		}
		return &IncCCState{Epoch: view.Epoch(), Labels: res.Values, Cold: cold}, res.Stats, nil
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
