// Engine matrix: the one place that knows how algorithm A runs on
// engine E — which program, under which engine Config, returning
// what. Every consumer that runs "the same algorithm under a
// different execution model" (the adaptive plan layer, the serving
// daemon, cmd/vcrun, the planner ablation) looks its run up here. The
// incremental engine is a column like the others: the async worklist
// model started from a prior result (Env.Prior).
//
// Values are one float64 per vertex: ranks, distances, component
// labels, coreness (the integers are exact in a float64). Every engine
// holds an unreachable SSSP vertex as +Inf; the serving layer turns
// that into the finite wire sentinel Unreachable, because JSON cannot
// carry +Inf.
package vc

import (
	"fmt"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	"vcgraph/internal/runtime"
)

// Args are a row's algorithm arguments; each algorithm reads its own.
type Args struct {
	Src   VertexID // sssp: source vertex
	Alpha float64  // pagerank: damping factor
	K     int      // pagerank: rank folds of the fixed-iteration rows
	Eps   float64  // pagerank: per-vertex tolerance of the converged rows
}

// Env is a row's run environment: the shared engine knobs, the
// snapshot the adaptive plan layer sampled, and the prior result an
// inc row resumes from. PackedState, Seed, FCS and NoCombiner reach the
// pregel rows only.
type Env struct {
	Config
	// Snapshot, when non-nil, is the already-pinned CSR generation the
	// run uses; Config.Partition must then be derived from it (see
	// fixedOwner).
	Snapshot *graph.CSR
	// Prior is read by the inc rows only. nil runs cold and keeps
	// nothing; otherwise the row resumes from *Prior (its zero value is
	// a cold start) and a successful run overwrites it with the state
	// the next run resumes from.
	Prior *Prior
}

// Prior is a result a later inc run resumes from: the values in the
// matrix's float64 shape (either spelling of an unreachable distance),
// the graph epoch they are valid for, and the args they were computed
// under — a row whose args differ starts cold. Cold reports whether the
// inc run that left the Prior recomputed from scratch.
type Prior struct {
	Epoch  int64
	Args   Args
	Values []float64
	Cold   bool
}

// Run executes a prepared row lock-free against its pinned snapshot.
type Run func() ([]float64, *bsp.Stats, error)

// Row prepares one (algorithm, engine) run: every read of the mutable
// graph happens now, under whatever lock the caller holds.
type Row func(g *graph.Graph, a Args, env Env) Run

// Key names a row.
type Key struct{ Algo, Engine string }

// EngineInc names the incremental engine's column. No plan selects it.
const EngineInc = "inc"

// Matrix is every served (algorithm, engine) pair. PageRank is
// fixed-iteration on the message-passing engines (K folds) and
// eps-converged on gas and async, as each model runs it natively. The
// inc column holds cc and sssp only, whose fixpoints are unique.
var Matrix = map[Key]Row{
	{"pagerank", plan.EnginePregel}:       pageRankPregel,
	{"pagerank", plan.EngineGAS}:          pageRankGASConverged,
	{"pagerank", plan.EngineAsync}:        pageRankAsync,
	{"pagerank", plan.EngineBlockcentric}: pageRankBlock,
	{"sssp", plan.EnginePregel}:           ssspPregel,
	{"sssp", plan.EngineGAS}:              ssspGAS,
	{"sssp", plan.EngineAsync}:            ssspAsync,
	{"sssp", plan.EngineBlockcentric}:     ssspBlock,
	{"cc", plan.EnginePregel}:             integers(hashMinPregel),
	{"cc", plan.EngineGAS}:                integers(ccGAS),
	{"cc", plan.EngineAsync}:              integers(ccAsync),
	{"cc", plan.EngineBlockcentric}:       integers(ccBlock),
	{"kcore", plan.EnginePregel}:          integers(kcorePregel),
	{"sssp", EngineInc}:                   ssspInc,
	{"cc", EngineInc}:                     ccInc,
}

// FixedKPageRank is the canonical fold-order family: exactly K
// synchronous folds with the Pregel variant's arithmetic, bit-identical
// across single-worker pregel, gas at any worker count, and
// block-centric push over a range partition. Engine "auto" runs
// PageRank from it, because Matrix's gas row is eps-converged and
// cannot promise exactly K folds; the async engine has no global
// iterate and so no row.
var FixedKPageRank = map[string]Row{
	plan.EnginePregel:       pageRankPregel,
	plan.EngineGAS:          pageRankGASFixedK,
	plan.EngineBlockcentric: pageRankBlockPush,
}

// LeaseShare is the worker share a job running engine with workers
// requested is admitted with: async and the incremental engine drain
// one sequential worklist, so their share is 1.
func LeaseShare(engine string, workers int) int {
	if engine == plan.EngineAsync || engine == EngineInc {
		return 1
	}
	return workers
}

// Verdict is the one-line human summary of a row's values, shared by
// the daemon's job status and cmd/vcrun. It accepts either spelling of
// an unreachable distance (+Inf or the wire sentinel).
func Verdict(algo string, a Args, values []float64) string {
	switch algo {
	case "pagerank":
		best, bestV := -1.0, 0
		for v, r := range values {
			if r > best {
				best, bestV = r, v
			}
		}
		return fmt.Sprintf("top vertex %d with rank %.6f", bestV, best)
	case "sssp":
		reached := 0
		for _, d := range values {
			if d < Unreachable {
				reached++
			}
		}
		return fmt.Sprintf("%d vertices reachable from %d", reached, a.Src)
	case "cc":
		set := make(map[float64]bool, 16)
		for _, l := range values {
			set[l] = true
		}
		return fmt.Sprintf("%d components", len(set))
	case "kcore":
		var degeneracy float64
		for _, c := range values {
			degeneracy = max(degeneracy, c)
		}
		return fmt.Sprintf("degeneracy %.0f", degeneracy)
	}
	return ""
}

// --- run environment -> engine Config ---

// engine overlays the plan layer's pinned snapshot on the run
// environment of env.Config.
func (env Env) engine() runtime.EngineConfig {
	c := env.Config.engine()
	c.Snapshot = env.Snapshot
	return c
}

// fixedOwner adapts a snapshot-derived owner array to the engines'
// Partitioner hook, ignoring the live graph entirely.
func fixedOwner(owner []int32) runtime.Partitioner {
	return func(*graph.Graph, int) []int32 { return owner }
}

// --- one prepare per engine; the rows below differ only in program ---

func gasRun[V, G any](g *graph.Graph, prog gas.Program[V, G], env Env) func() ([]V, *bsp.Stats, error) {
	run := gas.Prepare(g, prog, env.engine())
	return func() ([]V, *bsp.Stats, error) {
		res, err := run()
		return res.Values, res.Stats, err
	}
}

func asyncRun[V any](g *graph.Graph, prog async.Program[V], env Env) func() ([]V, *bsp.Stats, error) {
	run := async.Prepare(g, prog, env.engine())
	return func() ([]V, *bsp.Stats, error) {
		res, err := run()
		return res.Values, res.Stats, err
	}
}

func blockRun[V, M any](g *graph.Graph, prog blockcentric.Program[V, M], env Env) func() ([]V, *bsp.Stats, error) {
	eng := blockcentric.NewEngine(g, prog, env.engine())
	return func() ([]V, *bsp.Stats, error) {
		res, err := eng.Run()
		return res.Values, res.Stats, err
	}
}

// integers lifts a row over integer vertex values (component labels,
// coreness) to the matrix's float64 shape.
func integers[V ~int32](row func(*graph.Graph, Args, Env) func() ([]V, *bsp.Stats, error)) Row {
	return func(g *graph.Graph, a Args, env Env) Run {
		run := row(g, a, env)
		return func() ([]float64, *bsp.Stats, error) {
			vals, stats, err := run()
			return floats(vals), stats, err
		}
	}
}

// floats and ints convert integer vertex values to the matrix's
// float64 shape and back.
func floats[V ~int32](xs []V) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func ints[V ~int32](xs []float64) []V {
	out := make([]V, len(xs))
	for i, x := range xs {
		out[i] = V(x)
	}
	return out
}

// --- PageRank ---

func pageRankGASConverged(g *graph.Graph, a Args, env Env) Run {
	run := gas.PreparePageRank(g, a.Alpha, a.Eps, env.engine())
	return func() ([]float64, *bsp.Stats, error) {
		ranks, res, err := run()
		if err != nil {
			return nil, nil, err
		}
		return ranks, res.Stats, nil
	}
}

func pageRankGASFixedK(g *graph.Graph, a Args, env Env) Run {
	return gasRun(g, gas.PageRankFixedK(g.N(), a.K, a.Alpha, nil), env)
}

func pageRankAsync(g *graph.Graph, a Args, env Env) Run {
	run := async.PreparePageRank(g, a.Alpha, a.Eps, env.engine())
	return func() ([]float64, *bsp.Stats, error) {
		ranks, res, err := run()
		return ranks, res.Stats, err
	}
}

func pageRankBlock(g *graph.Graph, a Args, env Env) Run {
	return blockRun(g, blockcentric.PageRankProgram(g.N(), a.K, a.Alpha), env)
}

func pageRankBlockPush(g *graph.Graph, a Args, env Env) Run {
	// The program's fold order matches pregel only when every share
	// crosses the inbox: pin push.
	env.Mode = runtime.DirectionPush
	return pageRankBlock(g, a, env)
}

// --- SSSP ---

func ssspGAS(g *graph.Graph, a Args, env Env) Run {
	return gasRun(g, gas.SSSPProgram(a.Src), env)
}

func ssspBlock(g *graph.Graph, a Args, env Env) Run {
	return blockRun(g, blockcentric.SSSPProgram(a.Src), env)
}

func ssspAsync(g *graph.Graph, a Args, env Env) Run {
	return asyncRun(g, async.SSSPProgram(a.Src, nil), env)
}

// --- connected components ---

// refuseDirected is every cc row's answer on a directed graph (and the
// kcore row's), given before anything is pinned: min-label propagation
// along one edge direction labels ancestors, not components, and the
// paper's Hash-Min is an undirected algorithm. The async row refuses
// inside async.PrepareSeeded with the same sentinel.
func refuseDirected[T any](engine string) func() ([]T, *bsp.Stats, error) {
	err := fmt.Errorf("%s: %w", engine, async.ErrDirected)
	return func() ([]T, *bsp.Stats, error) { return nil, nil, err }
}

func ccGAS(g *graph.Graph, _ Args, env Env) func() ([]VertexID, *bsp.Stats, error) {
	if g.Directed {
		return refuseDirected[VertexID](plan.EngineGAS)
	}
	return gasRun(g, gas.CCProgram(), env)
}

func ccAsync(g *graph.Graph, _ Args, env Env) func() ([]VertexID, *bsp.Stats, error) {
	return asyncRun(g, async.CCProgram(nil), env)
}

func ccBlock(g *graph.Graph, _ Args, env Env) func() ([]VertexID, *bsp.Stats, error) {
	if g.Directed {
		return refuseDirected[VertexID](plan.EngineBlockcentric)
	}
	return blockRun(g, blockcentric.CCProgram(), env)
}
