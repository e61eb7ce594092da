package main

import (
	"context"
	"fmt"
	"math"
	stdruntime "runtime"
	"time"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
	"vcgraph/internal/vc"
)

const alpha = 0.85

// outcome is what an engine job hands back: the statistics the engine
// returned, the plan layer's log when the job ran on "auto", and a check
// of the result against the oracle computed in set-up.
type outcome struct {
	stats  *bsp.Stats
	auto   *vc.AutoResult
	check  func() error
	ranks  []float64        // pagerank jobs
	labels []graph.VertexID // cc jobs
}

// engineOp is one scheduler job: algorithm × engine on a fixed graph.
// prepare is the engine's Prepare* call (pin, partition, init); the
// closure it returns is the run.
type engineOp struct {
	algo   string // pagerank | sssp | cc | kcore
	engine string // the service's engine name, or pregel-push / pregel-pull
	layer  string // pregel | gas | async | blockcentric | vc (auto)
	graph  string // which of the workload's graphs, for auto_vs_best_fixed
	share  int    // scheduler share: 1 for the sequential async engine, else W
	// prepare builds the run for the job's lease.
	prepare func(j *rt.Job) func() (outcome, error)
}

func (o engineOp) name() string { return o.algo + "/" + o.engine }

func pregelMode(engine string) rt.DirectionMode {
	switch engine {
	case "pregel-push":
		return rt.DirectionPush
	case "pregel-pull":
		return rt.DirectionPull
	}
	return rt.DirectionAuto
}

func layerOf(engine string) string {
	switch engine {
	case "pregel", "pregel-push", "pregel-pull":
		return "pregel"
	case "auto":
		return "vc"
	}
	return engine
}

func newOp(algo, engine string, w int, prepare func(j *rt.Job) func() (outcome, error)) engineOp {
	op := engineOp{algo: algo, engine: engine, layer: layerOf(engine), share: w, prepare: prepare}
	if engine == "async" {
		op.share = 1
	}
	return op
}

// pagerankOp is PageRank checked against want within tol. k > 0 runs
// exactly k iterations; k == 0 runs the gas and async engines' own
// PageRank to convergence at eps = 1e-9, as the service does.
func pagerankOp(g *graph.Graph, engine string, k int, w int, want []float64, tol float64) engineOp {
	done := func(ranks []float64, st *bsp.Stats, ar *vc.AutoResult) (outcome, error) {
		return outcome{stats: st, auto: ar, ranks: ranks, check: func() error { return closeTo(ranks, want, tol) }}, nil
	}
	return newOp("pagerank", engine, w, func(j *rt.Job) func() (outcome, error) {
		switch {
		case engine == "gas" && k > 0:
			run := gas.Prepare(g, gas.PageRankFixedK(g.N(), k, alpha, nil), gas.Config{Job: j})
			return func() (outcome, error) {
				res, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(res.Values, res.Stats, nil)
			}
		case engine == "gas":
			run := gas.PreparePageRank(g, alpha, 1e-9, gas.Config{Job: j})
			return func() (outcome, error) {
				ranks, res, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(ranks, res.Stats, nil)
			}
		case engine == "async":
			run := async.PreparePageRank(g, alpha, 1e-9, async.Config{Job: j})
			return func() (outcome, error) {
				ranks, res, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(ranks, res.Stats, nil)
			}
		case engine == "blockcentric":
			run := blockcentric.PreparePageRank(g, alpha, k, blockcentric.Config{Job: j})
			return func() (outcome, error) {
				res, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(res.Ranks, res.Stats, nil)
			}
		case engine == "auto":
			run := vc.PrepareAutoPageRank(g, alpha, k, vc.AutoConfig{Config: vc.Config{Job: j}})
			return func() (outcome, error) {
				res, ar, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(res.Ranks, ar.Stats, ar)
			}
		default:
			run := vc.PreparePageRank(g, alpha, k, vc.Config{Mode: pregelMode(engine), Job: j})
			return func() (outcome, error) {
				res, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(res.Ranks, res.Stats, nil)
			}
		}
	})
}

// ssspOp is single-source shortest paths from vertex 0, checked for
// equality with seq.Dijkstra.
func ssspOp(g *graph.Graph, engine string, w int, want []float64) engineOp {
	done := func(dist []float64, st *bsp.Stats, ar *vc.AutoResult) (outcome, error) {
		return outcome{stats: st, auto: ar, check: func() error { return sameDistances(dist, want) }}, nil
	}
	return newOp("sssp", engine, w, func(j *rt.Job) func() (outcome, error) {
		switch engine {
		case "gas":
			run := gas.PrepareSSSP(g, 0, gas.Config{Job: j})
			return func() (outcome, error) {
				dist, res, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(dist, res.Stats, nil)
			}
		case "async":
			run := async.PrepareSSSP(g, 0, async.Config{Job: j})
			return func() (outcome, error) {
				dist, res, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(dist, res.Stats, nil)
			}
		case "blockcentric":
			run := blockcentric.PrepareSSSP(g, 0, blockcentric.Config{Job: j})
			return func() (outcome, error) {
				res, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(res.Dist, res.Stats, nil)
			}
		case "auto":
			run := vc.PrepareAutoSSSP(g, 0, vc.AutoConfig{Config: vc.Config{Job: j}})
			return func() (outcome, error) {
				res, ar, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(res.Dist, ar.Stats, ar)
			}
		default:
			run := vc.PrepareSSSP(g, 0, vc.Config{Mode: pregelMode(engine), Job: j})
			return func() (outcome, error) {
				res, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(res.Dist, res.Stats, nil)
			}
		}
	})
}

// ccOp is connected components (Hash-Min on pregel), checked for the
// same partition as seq.Components. packedState selects the bit-packed
// label store on pregel.
func ccOp(g *graph.Graph, engine string, w int, packedState bool, want []graph.VertexID) engineOp {
	done := func(labels []graph.VertexID, st *bsp.Stats, ar *vc.AutoResult) (outcome, error) {
		return outcome{stats: st, auto: ar, labels: labels, check: func() error { return samePartition(labels, want) }}, nil
	}
	return newOp("cc", engine, w, func(j *rt.Job) func() (outcome, error) {
		switch engine {
		case "gas":
			run := gas.PrepareConnectedComponents(g, gas.Config{Job: j})
			return func() (outcome, error) {
				labels, res, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(labels, res.Stats, nil)
			}
		case "async":
			run := async.PrepareConnectedComponents(g, async.Config{Job: j})
			return func() (outcome, error) {
				labels, res, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(labels, res.Stats, nil)
			}
		case "blockcentric":
			run := blockcentric.PrepareConnectedComponents(g, blockcentric.Config{Job: j})
			return func() (outcome, error) {
				res, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(res.Color, res.Stats, nil)
			}
		case "auto":
			run := vc.PrepareAutoHashMinCC(g, vc.AutoConfig{Config: vc.Config{Job: j}})
			return func() (outcome, error) {
				res, ar, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(res.Color, ar.Stats, ar)
			}
		default:
			run := vc.PrepareHashMinCC(g, vc.Config{Mode: pregelMode(engine), PackedState: packedState, Job: j})
			return func() (outcome, error) {
				res, err := run()
				if err != nil {
					return outcome{}, err
				}
				return done(res.Color, res.Stats, nil)
			}
		}
	})
}

// kcoreOp is k-core decomposition on pregel: no combiner, so every
// superstep pushes. Checked for equality with seq.KCore.
func kcoreOp(g *graph.Graph, w int, want []int32) engineOp {
	return newOp("kcore", "pregel", w, func(j *rt.Job) func() (outcome, error) {
		run := vc.PrepareKCore(g, vc.Config{Job: j})
		return func() (outcome, error) {
			res, err := run()
			if err != nil {
				return outcome{}, err
			}
			return outcome{stats: res.Stats, check: func() error {
				if len(res.Core) != len(want) {
					return fmt.Errorf("kcore: %d values, want %d", len(res.Core), len(want))
				}
				for v := range want {
					if res.Core[v] != want[v] {
						return fmt.Errorf("kcore: vertex %d has coreness %d, want %d", v, res.Core[v], want[v])
					}
				}
				return nil
			}}, nil
		}
	})
}

func closeTo(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pagerank: %d values, want %d", len(got), len(want))
	}
	for v := range want {
		if d := math.Abs(got[v] - want[v]); !(d <= tol) {
			return fmt.Errorf("pagerank: vertex %d has rank %g, want %g within %g", v, got[v], want[v], tol)
		}
	}
	return nil
}

// unreachable folds the engines' two spellings of "no path" (+Inf and
// the vc.Unreachable sentinel) into one.
func unreachable(d float64) bool { return d >= 1e300 }

func sameDistances(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("sssp: %d values, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] && !(unreachable(got[v]) && unreachable(want[v])) {
			return fmt.Errorf("sssp: vertex %d has distance %g, want %g", v, got[v], want[v])
		}
	}
	return nil
}

// samePartition reports whether two labelings (labels are vertex IDs)
// split the vertices into the same classes: the label-to-label map must
// be a bijection.
func samePartition(got, want []graph.VertexID) error {
	if len(got) != len(want) {
		return fmt.Errorf("cc: %d labels, want %d", len(got), len(want))
	}
	n := len(want)
	fwd := make([]graph.VertexID, n)
	back := make([]graph.VertexID, n)
	for i := range fwd {
		fwd[i], back[i] = graph.NoVertex, graph.NoVertex
	}
	for v := range want {
		a, b := got[v], want[v]
		if a < 0 || int(a) >= n {
			return fmt.Errorf("cc: vertex %d has label %d out of range", v, a)
		}
		if fwd[a] == graph.NoVertex && back[b] == graph.NoVertex {
			fwd[a], back[b] = b, a
		} else if fwd[a] != b || back[b] != a {
			return fmt.Errorf("cc: vertex %d is in class %d, the oracle puts it in %d", v, a, b)
		}
	}
	return nil
}

// runEngineOp submits op to the scheduler with vc.Config.Job set, as
// cmd/vcrun does, waits for it, checks the result, and records latency,
// counts and (when tracing) spans and mallocs into p.
func (b *bench) runEngineOp(op engineOp, p *passStats) outcome {
	id := b.tr.newOp()
	root := b.tr.begin("op "+op.name(), -1, id)
	traced := root >= 0
	var (
		out               outcome
		admitted          time.Time
		runTime           time.Duration
		mallocs, mallocs0 uint64
	)
	start := time.Now()
	job := b.sched.Submit(context.Background(), op.name(), op.share, func(j *rt.Job) error {
		admitted = time.Now()
		sp := b.tr.begin(op.layer+".prepare", root, id)
		run := op.prepare(j)
		b.tr.end(sp)
		var ms stdruntime.MemStats
		if traced {
			stdruntime.ReadMemStats(&ms)
			mallocs0 = ms.Mallocs
		}
		sp = b.tr.begin(op.layer+".run", root, id)
		t0 := time.Now()
		var err error
		out, err = run()
		runTime = time.Since(t0)
		b.tr.end(sp)
		if traced {
			stdruntime.ReadMemStats(&ms)
			mallocs = ms.Mallocs - mallocs0
		}
		return err
	})
	err := job.Wait()
	p.lat = append(p.lat, time.Since(start))
	b.tr.end(root)
	if err == nil {
		err = out.check()
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", op.name(), err)
	}
	p.op(err)
	if err != nil || out.stats == nil {
		return out
	}
	p.add("runtime.jobs", 1)
	p.add("runtime.admit_wait_s", admitted.Sub(start).Seconds())
	p.runs[runKey{op.graph, op.algo, op.engine}] += runTime.Seconds()
	p.add(op.layer+".mallocs", float64(mallocs))
	recordSummary(p, op.layer, out.stats.Summarize())
	// Per-worker work is in bsp.Stats only, not in the summary.
	for _, ss := range out.stats.Supersteps {
		p.add("runtime.max_work", float64(ss.MaxWork))
	}
	p.add("runtime.mean_work", ratio(float64(out.stats.TotalWork), float64(out.stats.Workers)))
	if out.auto != nil {
		recordPlan(p, out.auto.Segments, len(out.auto.Decisions))
	}
	return out
}

// recordSummary adds the counts an engine returned, in the wire form the
// service reports them in, to the pass.
func recordSummary(p *passStats, layer string, sum bsp.Summary) {
	steps := float64(sum.Supersteps)
	p.add("runtime.supersteps", steps)
	p.add(layer+".supersteps", steps)
	p.add(layer+".messages", float64(sum.TotalMessages))
	p.add(layer+".work", float64(sum.TotalWork))
	p.add(layer+".pulled_supersteps", float64(sum.Pulled))
	p.add(layer+".model_cost", sum.MeasuredTime)
	p.add("runtime.delta_checkpoints", float64(sum.DeltaCheckpoints))
	p.add("runtime.checkpoint_bytes_full", float64(sum.CheckpointBytesFull))
	p.add("runtime.checkpoint_bytes_delta", float64(sum.CheckpointBytesDelta))
	p.add("runtime.rollbacks", float64(sum.Rollbacks))
	p.add("runtime.redone_supersteps", float64(sum.RedoneUnits))
}

// recordPlan adds what the plan layer did on one "auto" job.
func recordPlan(p *passStats, segments, decisions int) {
	p.add("vc.auto_switches", float64(segments-1))
	p.add("plan.decisions", float64(decisions))
}
