// Adaptive plan layer orchestration: run an algorithm under engine
// "auto". The planner (internal/plan) picks one configuration from
// statistics sampled on a pinned snapshot at prepare time, and the run
// is that configuration's row of the engine matrix (matrix.go) against
// the same snapshot, from superstep 0 to the end.
package vc

import (
	"fmt"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
)

// AutoConfig configures an engine-"auto" run: the shared engine knobs
// plus an optional forced plan.
type AutoConfig struct {
	Config
	// Plan, when non-nil, replaces the planner's decision: the run uses
	// this plan under the auto harness. The planner ablation runs each
	// fixed baseline this way.
	Plan *plan.Plan
	// Trace, when non-nil, observes the decision as it is taken (CLIs
	// print it; the daemon logs it).
	Trace func(plan.Decision)
}

// AutoResult reports what the plan layer did around the algorithm
// result: the run's statistics and its decision log. The log holds the
// one prepare-time decision and Segments is always 1; job status
// carries both.
type AutoResult struct {
	Stats      *bsp.Stats      `json:"-"`
	Decisions  []plan.Decision `json:"decisions"`
	GraphStats plan.GraphStats `json:"graph"`
	Segments   int             `json:"segments"`
}

// autoWorkers resolves the worker share the run uses. The sampler's
// block locality and the plan's partition are computed for it, so the
// orchestrator resolves it once instead of leaning on per-engine
// defaults.
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
// planner may assume about each. PageRank runs come from the
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

// PrepareAuto is the job-scoped form of an engine-"auto" run of algo
// (a key of AutoAlgorithms): the snapshot is pinned and sampled now,
// the returned closure runs the planned row lock-free.
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

// runAuto takes the one decision and runs its matrix row.
func runAuto(g *graph.Graph, csr *graph.CSR, a Args, cfg AutoConfig, gs plan.GraphStats, caps plan.Caps) ([]float64, *AutoResult, error) {
	d := plan.Initial(gs, caps)
	if cfg.Plan != nil {
		d = plan.Decision{Plan: *cfg.Plan, Reason: "forced"}
	}
	if cfg.Trace != nil {
		cfg.Trace(d)
	}
	res := &AutoResult{Decisions: []plan.Decision{d}, GraphStats: gs, Segments: 1}
	row, ok := autoRow(caps, d.Plan.Engine)
	if !ok {
		return nil, res, fmt.Errorf("plan: engine %q cannot run %s", d.Plan.Engine, caps.Algorithm)
	}
	env := Env{Config: cfg.Config, Snapshot: csr}
	env.Workers = caps.Workers
	env.Partition = fixedOwner(d.Plan.Owner(csr, caps.Workers))
	// The plan owns the direction, and it plans no serial finish.
	env.Mode, env.FCS = d.Plan.DirectionMode(), 0
	values, st, err := row(g, a, env)()
	res.Stats = st
	if err != nil {
		return nil, res, err
	}
	return values, res, nil
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
