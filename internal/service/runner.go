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
// the job-level stats summary, a one-line human verdict, and the Prior
// a later inc job resumes from (its Values are values).
type runResult struct {
	values  []float64
	summary bsp.Summary
	verdict string
	prior   vc.Prior
	// auto carries the plan layer's decision log and sampled graph
	// statistics when the job ran on the "auto" engine.
	auto *vc.AutoResult
}

// validEngines enumerates the engines an algorithm runs on, sorted:
// its rows of the engine matrix, plus "auto" — the plan layer, which
// picks one row before the run starts — where it takes the algorithm.
// Empty means the algorithm is unknown.
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
	if (spec.Incremental || spec.Resume != 0) && spec.Engine != "inc" {
		return fmt.Errorf("service: incremental and resume require the inc engine, got %q", spec.Engine)
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
// the engine matrix — or the auto harness around it — pinning a CSR
// snapshot and performing every read of the mutable adjacency, and
// returns a closure that runs lock-free against the snapshot. spec has
// passed withDefaults and validateSpec; resume is the Prior an inc job
// resumes from, or nil.
func (s *Server) prepareRunner(g *graph.Graph, spec JobSpec, resume *vc.Prior, job *rt.Job) (func() (*runResult, error), error) {
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
	// Every job leaves a Prior: an inc row overwrites this one with its
	// own state, any other job leaves its values (result fills them in)
	// at the prepare-time epoch.
	prior := resume
	if prior == nil {
		prior = &vc.Prior{Epoch: g.Epoch(), Args: args}
	}
	if spec.Engine == "auto" {
		// The orchestrator samples the pinned snapshot and picks the
		// engine, partition and mode once; spec.Mode and spec.FCS are
		// overridden — under "auto" the planner owns both knobs.
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
			out := result(spec, values, ar.Stats, prior)
			out.auto = ar
			return out, nil
		}, nil
	}
	run := vc.Matrix[vc.Key{Algo: spec.Algo, Engine: spec.Engine}](g, args, vc.Env{Config: cfg, Prior: prior})
	return func() (*runResult, error) {
		values, stats, err := run()
		if err != nil {
			return nil, err
		}
		return result(spec, values, stats, prior), nil
	}, nil
}

// result is the one exit every job's values leave through. The engine
// matrix reports an unreachable SSSP vertex as +Inf, which JSON cannot
// carry; here, once, it becomes vc.Unreachable — the finite sentinel
// the wire documents.
func result(spec JobSpec, values []float64, stats *bsp.Stats, prior *vc.Prior) *runResult {
	for i, v := range values {
		if math.IsInf(v, 1) {
			values[i] = vc.Unreachable
		}
	}
	prior.Values = values
	args := vc.Args{Src: graph.VertexID(spec.Src)}
	return &runResult{values: values, summary: stats.Summarize(), verdict: vc.Verdict(spec.Algo, args, values), prior: *prior}
}
