package service

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	rt "vcgraph/internal/runtime"
	"vcgraph/internal/vc"
)

// runResult is the normalized output of any algorithm × engine pair:
// one float64 per vertex (ranks, distances, component labels, or
// coreness — labels and coreness are integers, exact in a float64),
// the job-level stats summary, and a one-line human verdict. epoch is
// the graph's mutation epoch at prepare time, so a later incremental
// job can resume from this result; inc carries the richer incremental
// state when the job ran on the inc engine.
type runResult struct {
	values  []float64
	summary bsp.Summary
	verdict string
	epoch   int64
	inc     *incState
	// auto carries the plan layer's decision log and sampled graph
	// statistics when the job ran on the "auto" engine.
	auto *vc.AutoResult
}

// incState holds whichever incremental state a job produced, or a
// resuming job warm-starts from.
type incState struct {
	cc   *vc.IncCCState
	sssp *vc.IncSSSPState
	pr   *vc.IncPRState
}

// cold reports whether the run recomputed from scratch (no usable
// prior state — first run, mismatched resume, or truncated log).
func (b *incState) cold() bool {
	switch {
	case b.cc != nil:
		return b.cc.Cold
	case b.sssp != nil:
		return b.sssp.Cold
	case b.pr != nil:
		return b.pr.Cold
	}
	return true
}

// priorFromResult reconstructs warm-start state from a prior job's
// result. An incremental prior hands over its state directly; a plain
// prior seeds CC/SSSP from its converged values and prepare-time epoch
// (their fixpoints are engine-independent, and result already put the
// unreachable distances in the incremental engine's spelling).
func priorFromResult(spec JobSpec, res *runResult) *incState {
	if res.inc != nil {
		return res.inc
	}
	switch spec.Algo {
	case "cc":
		labels := make([]graph.VertexID, len(res.values))
		for i, v := range res.values {
			labels[i] = graph.VertexID(v)
		}
		return &incState{cc: &vc.IncCCState{Epoch: res.epoch, Labels: labels}}
	case "sssp":
		dist := append([]float64(nil), res.values...)
		return &incState{sssp: &vc.IncSSSPState{Epoch: res.epoch, Src: graph.VertexID(spec.Src), Dist: dist}}
	}
	return nil
}

// validEngines enumerates the engines an algorithm runs on, sorted:
// its rows of the engine matrix, plus the two harnesses that are not
// rows — "auto" (the plan layer, which moves between rows mid-run) and
// "inc" (resumable evolving-graph state) — where they take it. Empty
// means the algorithm is unknown.
func validEngines(algo string) []string {
	var names []string
	for k := range vc.Matrix {
		if k.Algo == algo {
			names = append(names, k.Engine)
		}
	}
	if _, ok := vc.AutoAlgorithms[algo]; ok {
		names = append(names, "auto")
	}
	if incRuns[algo] != nil {
		names = append(names, "inc")
	}
	slices.Sort(names)
	return names
}

// withDefaults folds the server-level checkpoint cadence defaults
// (Options) into unset spec fields, then the per-field fallbacks.
func (s *Server) withDefaults(spec JobSpec) JobSpec {
	if spec.Checkpoint == 0 && spec.CheckpointEvery == 0 {
		spec.Checkpoint = s.opts.DefaultCheckpointEvery
	}
	if spec.FullSnapshot == 0 {
		spec.FullSnapshot = s.opts.DefaultFullSnapshotEvery
	}
	return withDefaults(spec)
}

func withDefaults(spec JobSpec) JobSpec {
	if spec.Incremental && spec.Engine == "" {
		spec.Engine = "inc"
	}
	if spec.Engine == "inc" {
		spec.Incremental = true
	}
	if spec.Engine == "" {
		spec.Engine = "pregel"
	}
	if spec.Alpha == 0 {
		spec.Alpha = 0.85
	}
	if spec.K == 0 {
		spec.K = 30
	}
	if spec.Eps == 0 {
		spec.Eps = 1e-9
	}
	if spec.Checkpoint == 0 {
		spec.Checkpoint = spec.CheckpointEvery
	}
	if spec.Faults != 0 && spec.Checkpoint == 0 {
		spec.Checkpoint = 2
	}
	return spec
}

func validateSpec(spec JobSpec) error {
	valid := validEngines(spec.Algo)
	if len(valid) == 0 {
		return fmt.Errorf("service: unknown algorithm %q", spec.Algo)
	}
	if !slices.Contains(valid, spec.Engine) {
		return fmt.Errorf("service: algorithm %q does not run on engine %q (valid engines: %s)",
			spec.Algo, spec.Engine, strings.Join(valid, ", "))
	}
	if spec.Resume != 0 && spec.Engine != "inc" {
		return fmt.Errorf("service: resume requires the inc engine, got %q", spec.Engine)
	}
	if _, err := rt.ParseDirectionMode(spec.Mode); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

func faultPlan(spec JobSpec) *rt.FaultPlan {
	if spec.Faults == 0 {
		return nil
	}
	return rt.NewFaultPlan(spec.Faults)
}

// prepareRunner is the prepare phase of a job: it is called with the
// graph's read lock held, prepares spec's (algorithm, engine) row of
// the engine matrix — or one of the two harnesses around it — pinning a
// CSR snapshot and performing every read of the mutable adjacency, and
// returns a closure that runs lock-free against the snapshot. spec has
// passed withDefaults and validateSpec.
func (s *Server) prepareRunner(g *graph.Graph, spec JobSpec, prior *incState, job *rt.Job) (func() (*runResult, error), error) {
	if spec.Engine == "inc" {
		return prepareInc(g, spec, prior, job)
	}
	mode, err := rt.ParseDirectionMode(spec.Mode)
	if err != nil {
		return nil, err
	}
	args := vc.Args{Src: graph.VertexID(spec.Src), Alpha: spec.Alpha, K: spec.K, Eps: spec.Eps}
	cfg := vc.Config{
		Workers:           spec.Workers,
		Mode:              mode,
		CheckpointEvery:   spec.Checkpoint,
		FullSnapshotEvery: spec.FullSnapshot,
		Faults:            faultPlan(spec),
		FCS:               spec.FCS,
		Job:               job,
	}
	if spec.Engine == "auto" {
		// The orchestrator samples the pinned snapshot, picks the initial
		// engine/partition/mode, and replans at superstep barriers;
		// spec.Mode and spec.FCS are overridden per segment — under
		// "auto" the planner owns both knobs.
		acfg := vc.AutoConfig{Config: cfg}
		if trace := s.opts.PlanTrace; trace != nil {
			id := job.ID()
			acfg.Trace = func(d plan.Decision) { trace(id, d) }
		}
		run := vc.PrepareAuto(g, spec.Algo, args, acfg)
		return func() (*runResult, error) {
			values, ar, err := run()
			if err != nil {
				return nil, err
			}
			out := result(spec, values, ar.Stats)
			out.auto = ar
			return out, nil
		}, nil
	}
	run := vc.Matrix[vc.Key{Algo: spec.Algo, Engine: spec.Engine}](g, args, nil, vc.Env{Config: cfg})
	return func() (*runResult, error) {
		values, stats, err := run()
		if err != nil {
			return nil, err
		}
		return result(spec, values, stats), nil
	}, nil
}

type incRun func() ([]float64, *bsp.Stats, *incState, error)

// incRuns is the evolving-graph engine, one entry per algorithm: each
// pins a delta view and performs the seed analysis under the graph read
// lock, and its run drains (or for PageRank, sweeps) lock-free,
// returning the values alongside the state the next resume chains from.
var incRuns = map[string]func(*graph.Graph, JobSpec, *incState, vc.IncConfig) incRun{
	"pagerank": func(g *graph.Graph, spec JobSpec, prior *incState, cfg vc.IncConfig) incRun {
		run := vc.PrepareIncrementalPageRank(g, spec.Alpha, spec.K, prior.pr, cfg)
		return func() ([]float64, *bsp.Stats, *incState, error) {
			st, stats, err := run()
			if err != nil {
				return nil, nil, nil, err
			}
			return st.Ranks(), stats, &incState{pr: st}, nil
		}
	},
	"sssp": func(g *graph.Graph, spec JobSpec, prior *incState, cfg vc.IncConfig) incRun {
		run := vc.PrepareIncrementalSSSP(g, graph.VertexID(spec.Src), prior.sssp, cfg)
		return func() ([]float64, *bsp.Stats, *incState, error) {
			st, stats, err := run()
			if err != nil {
				return nil, nil, nil, err
			}
			return st.Dist, stats, &incState{sssp: st}, nil
		}
	},
	"cc": func(g *graph.Graph, spec JobSpec, prior *incState, cfg vc.IncConfig) incRun {
		run := vc.PrepareIncrementalCC(g, prior.cc, cfg)
		return func() ([]float64, *bsp.Stats, *incState, error) {
			st, stats, err := run()
			if err != nil {
				return nil, nil, nil, err
			}
			values := make([]float64, len(st.Labels))
			for i, l := range st.Labels {
				values[i] = float64(l)
			}
			return values, stats, &incState{cc: st}, nil
		}
	},
}

func prepareInc(g *graph.Graph, spec JobSpec, prior *incState, job *rt.Job) (func() (*runResult, error), error) {
	if g.Directed && spec.Algo != "pagerank" {
		return nil, fmt.Errorf("service: incremental %s requires an undirected graph", spec.Algo)
	}
	if prior == nil {
		prior = &incState{}
	}
	run := incRuns[spec.Algo](g, spec, prior, vc.IncConfig{
		CheckpointEvery:   spec.Checkpoint,
		FullSnapshotEvery: spec.FullSnapshot,
		Faults:            faultPlan(spec),
		Job:               job,
	})
	return func() (*runResult, error) {
		values, stats, state, err := run()
		if err != nil {
			return nil, err
		}
		out := result(spec, values, stats)
		out.inc = state
		return out, nil
	}, nil
}

// result is the one exit every job's values leave through. The engine
// matrix reports an unreachable SSSP vertex as +Inf, which JSON cannot
// carry; here, once, it becomes vc.Unreachable — the finite sentinel
// the incremental engine already holds and the wire documents.
func result(spec JobSpec, values []float64, stats *bsp.Stats) *runResult {
	for i, v := range values {
		if math.IsInf(v, 1) {
			values[i] = vc.Unreachable
		}
	}
	args := vc.Args{Src: graph.VertexID(spec.Src)}
	return &runResult{values: values, summary: stats.Summarize(), verdict: vc.Verdict(spec.Algo, args, values)}
}
