// Adaptive plan layer orchestration: run an algorithm under engine
// "auto". A planner (internal/plan) picks the starting configuration
// from sampled graph statistics, every engine run is consulted at its
// superstep barriers through runtime.EngineConfig.Replan, and when the
// planner decides mid-run that another configuration wins, the engine
// aborts with runtime.ErrHandoff, the orchestrator exports the vertex
// values at the barrier, and a freshly prepared engine resumes them.
//
// Handoff protocol (warm restart, not state transplant): only vertex
// values cross the boundary — never inboxes, halt flags, or worklists.
// The destination engine starts with every vertex active and
// re-announces state in its first superstep. For the monotone min-fold
// algorithms (Hash-Min components, SSSP relaxation) a re-announced
// label dominates any message that was in flight at the barrier, so
// the fixpoint is byte-identical to an unswitched run. For fixed-K
// PageRank the orchestrator tracks how many rank folds each segment
// completed and runs the remainder; the first superstep after a
// handoff regenerates exactly the messages that were discarded (the
// ranks they derive from are unchanged), so the k-th iterate is again
// bit-identical within the canonical fold-order family (single-worker
// pregel, gas, block-centric push over a range partition).
//
// All segments run against one pinned CSR snapshot: each engine is
// handed Env.Snapshot plus a partition derived from that snapshot, so a
// handoff never observes concurrent graph growth.
//
// How a segment runs on its engine is not decided here: every segment
// is a row of the engine matrix (matrix.go), prepared with the previous
// segment's values as its seed.
package vc

import (
	"errors"
	"fmt"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	"vcgraph/internal/runtime"
)

// AutoConfig configures an engine-"auto" run: the shared engine knobs
// plus the planner.
type AutoConfig struct {
	Config
	// Planner holds the replanning knobs; nil means defaults.
	Planner *plan.Planner
	// Script, when non-empty, forces the decision sequence instead of
	// consulting the planner: Script[0] replaces the initial decision
	// and every later entry forces a live handoff to its Plan at the
	// first barrier at or past its Step. This is how the differential
	// tests pin a switch at an exact superstep; it is also reachable
	// from benchmarks that want a fixed plan under the auto harness.
	Script []plan.Decision
	// Trace, when non-nil, observes each decision as it is taken
	// (CLIs print them; the daemon logs them).
	Trace func(plan.Decision)
}

// AutoResult reports what the plan layer did around the algorithm
// result: the merged statistics of all segments and the decision log.
type AutoResult struct {
	Stats      *bsp.Stats      `json:"-"`
	Decisions  []plan.Decision `json:"decisions"`
	GraphStats plan.GraphStats `json:"graph"`
	Segments   int             `json:"segments"`
}

// autoWorkers resolves the worker share every segment runs with. All
// segments must agree (the job lease is fixed), so the orchestrator
// resolves it once instead of leaning on per-engine defaults.
func autoWorkers(c Config) int {
	if c.Job != nil {
		return c.Job.Workers()
	}
	if c.Workers > 0 {
		return c.Workers
	}
	return 4
}

// AutoAlgorithms lists what runs under engine "auto", with what the
// planner may assume about each. PageRank segments come from the
// FixedKPageRank family, everything else from Matrix.
var AutoAlgorithms = map[string]plan.Caps{
	"pagerank": {Algorithm: "pagerank", FixedK: true},
	"sssp":     {Algorithm: "sssp"},
	"cc":       {Algorithm: "cc"},
}

func autoRow(caps plan.Caps, engine string) (Row, bool) {
	if caps.FixedK {
		row, ok := FixedKPageRank[engine]
		return row, ok
	}
	row, ok := Matrix[Key{caps.Algorithm, engine}]
	return row, ok
}

// folds is how many rank folds a fixed-K segment of steps supersteps
// completed: gas folds at every iteration including the first, while a
// message-passing engine's superstep 0 only sends.
func folds(engine string, steps int) int {
	if engine == plan.EngineGAS || steps == 0 {
		return steps
	}
	return steps - 1
}

// PrepareAuto is the job-scoped form of an engine-"auto" run of algo
// (a key of AutoAlgorithms): the snapshot is pinned and sampled now,
// the returned closure runs the segment loop lock-free.
func PrepareAuto(g *graph.Graph, algo string, a Args, cfg AutoConfig) func() ([]float64, *AutoResult, error) {
	caps, ok := AutoAlgorithms[algo]
	if !ok {
		return func() ([]float64, *AutoResult, error) {
			return nil, nil, fmt.Errorf("vc: algorithm %q does not run on engine auto", algo)
		}
	}
	csr := g.Pin()
	workers := autoWorkers(cfg.Config)
	gs := plan.Sample(csr, workers)
	caps.HasCombiner, caps.Workers = !cfg.NoCombiner, workers
	return func() ([]float64, *AutoResult, error) {
		defer g.Unpin(csr)
		return runAuto(g, csr, a, cfg, gs, caps)
	}
}

// runAuto is the segment loop: take a decision, run its matrix row
// seeded with the previous segment's values, and on a handoff repeat
// under the next decision.
func runAuto(g *graph.Graph, csr *graph.CSR, a Args, cfg AutoConfig, gs plan.GraphStats, caps plan.Caps) ([]float64, *AutoResult, error) {
	planner := cfg.Planner
	scripted := len(cfg.Script) > 0
	cur := planner.Initial(gs, caps)
	if scripted {
		cur = cfg.Script[0]
		if cur.Reason == "" {
			cur.Reason = "scripted"
		}
	}
	if cfg.Trace != nil {
		cfg.Trace(cur)
	}
	res := &AutoResult{Decisions: []plan.Decision{cur}, GraphStats: gs}
	var segStats []*bsp.Stats
	var hist []bsp.SuperstepStats
	var seed []float64
	globalBase := 0
	switches := 0
	scriptIdx := 1
	// done counts the rank folds completed across fixed-K segments; each
	// segment runs the remainder.
	k, done := a.K, 0
	for {
		var next plan.Decision
		handoff := false
		hook := func(step, pending int) bool {
			// The driver consults Replan at every barrier; pending is
			// the frontier entering the next superstep. Accumulate it
			// as signal history so the planner sees the run's shape
			// without reaching into a live engine.
			hist = append(hist, bsp.SuperstepStats{Frontier: int64(pending)})
			if step == 0 {
				return false
			}
			globalAt := globalBase + step
			if scripted {
				if scriptIdx < len(cfg.Script) && globalAt >= cfg.Script[scriptIdx].Step {
					next = cfg.Script[scriptIdx]
					next.Step = globalAt
					if next.Reason == "" {
						next.Reason = "scripted"
					}
					scriptIdx++
					handoff = true
				}
				return handoff
			}
			if globalAt%planner.ReplanEvery() != 0 {
				return false
			}
			sig := planner.HarvestWindow(hist, gs.N)
			d, ok := planner.Replan(cur.Plan, gs, caps, sig, globalAt, switches)
			if !ok {
				return false
			}
			next = d
			handoff = true
			return true
		}
		engine := cur.Plan.Engine
		var values []float64
		var st *bsp.Stats
		var err error
		switch row, ok := autoRow(caps, engine); {
		case !ok:
			err = fmt.Errorf("plan: engine %q cannot run %s", engine, caps.Algorithm)
		default:
			env := Env{Config: cfg.Config, Snapshot: csr, Replan: hook}
			env.Workers = caps.Workers
			env.Partition = fixedOwner(cur.Plan.Owner(csr, caps.Workers))
			env.Mode = cur.Plan.DirectionMode()
			env.FCS = cur.Plan.FCS
			if caps.FixedK {
				a.K = max(k-done, 0)
			}
			values, st, err = row(g, a, seed, env)()
		}
		if st != nil {
			segStats = append(segStats, st)
			globalBase += st.NumSupersteps()
			done += folds(engine, st.NumSupersteps())
		}
		res.Stats = MergeStats(segStats...)
		res.Segments = len(segStats)
		switch {
		case err == nil:
			return values, res, nil
		case errors.Is(err, runtime.ErrHandoff) && handoff:
			seed = values
			switches++
			res.Decisions = append(res.Decisions, next)
			if cfg.Trace != nil {
				cfg.Trace(next)
			}
			cur = next
		default:
			return nil, res, err
		}
	}
}

// PrepareAutoPageRank prepares k iterations of PageRank under the
// adaptive plan layer.
func PrepareAutoPageRank(g *graph.Graph, alpha float64, k int, cfg AutoConfig) func() (*PageRankResult, *AutoResult, error) {
	run := PrepareAuto(g, "pagerank", Args{Alpha: alpha, K: k}, cfg)
	return func() (*PageRankResult, *AutoResult, error) {
		ranks, ar, err := run()
		if err != nil {
			return nil, ar, err
		}
		return &PageRankResult{Ranks: ranks, Stats: ar.Stats}, ar, nil
	}
}

// PrepareAutoHashMinCC prepares connected components under the adaptive
// plan layer.
func PrepareAutoHashMinCC(g *graph.Graph, cfg AutoConfig) func() (*CCResult, *AutoResult, error) {
	run := PrepareAuto(g, "cc", Args{}, cfg)
	return func() (*CCResult, *AutoResult, error) {
		labels, ar, err := run()
		if err != nil {
			return nil, ar, err
		}
		return &CCResult{Color: ints[VertexID](labels), Stats: ar.Stats}, ar, nil
	}
}

// PrepareAutoSSSP prepares single-source shortest paths under the
// adaptive plan layer.
func PrepareAutoSSSP(g *graph.Graph, src VertexID, cfg AutoConfig) func() (*SSSPResult, *AutoResult, error) {
	run := PrepareAuto(g, "sssp", Args{Src: src}, cfg)
	return func() (*SSSPResult, *AutoResult, error) {
		dist, ar, err := run()
		if err != nil {
			return nil, ar, err
		}
		return &SSSPResult{Dist: dist, Stats: ar.Stats}, ar, nil
	}
}
