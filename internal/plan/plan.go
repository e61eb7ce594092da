// Package plan implements the adaptive plan layer: a planner that
// samples cheap graph statistics at prepare time and emits an execution
// Plan — which engine to run, how to partition, which message direction
// to use. The paper's thesis is that no single vertex-centric
// configuration wins everywhere ("the good, the bad, and the ugly");
// this package encodes the paper's findings as decision rules so a job
// submitted with engine "auto" lands on a sensible configuration
// without the user reading Table 1. The plan is decided once, before
// the first superstep, and the run keeps it to the end.
//
// The package is deliberately small and engine-agnostic: it imports
// only the graph snapshot and the shared runtime's partitioners. Running
// the plan lives with the algorithms in internal/vc.
package plan

import (
	"fmt"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// Engine names a Plan can select. These mirror the serving layer's
// engine registry spellings.
const (
	EnginePregel       = "pregel"
	EngineGAS          = "gas"
	EngineAsync        = "async"
	EngineBlockcentric = "blockcentric"
)

// Partition strategies a Plan can select. PartitionHash names the
// engines' default placement, degree-balanced runs of consecutive
// vertices (runtime.PartitionRunsCSR); the spelling is the wire's and
// predates runs.
const (
	PartitionHash   = "hash"
	PartitionRange  = "range"
	PartitionDegree = "degree"
)

// Plan is one execution configuration: the planner's output and the
// auto runner's input. All fields use their CLI/wire spellings so a
// Plan marshals into job status JSON as-is.
type Plan struct {
	Engine    string `json:"engine"`
	Partition string `json:"partition"`
	// Mode is the direction-optimization mode ("auto", "push", "pull").
	Mode string `json:"mode"`
}

// DirectionMode resolves the Mode spelling to the runtime enum.
func (p Plan) DirectionMode() rt.DirectionMode {
	m, _ := rt.ParseDirectionMode(p.Mode)
	return m
}

// Owner materializes the plan's partition as a vertex->worker
// assignment against a pinned snapshot. Deriving owners from the
// snapshot (never the live graph) keeps them valid while writers grow
// the graph.
func (p Plan) Owner(csr *graph.CSR, workers int) []int32 {
	switch p.Partition {
	case PartitionRange:
		return rt.PartitionRangeN(csr.N(), workers)
	case PartitionDegree:
		return rt.PartitionDegreeBalancedCSR(csr, workers)
	default:
		return rt.PartitionRunsCSR(csr, workers)
	}
}

// GraphStats are the prepare-time statistics Sample collects: one O(n)
// degree scan plus one O(m) locality scan over the pinned snapshot.
// Sampling is deterministic — the same snapshot always yields the same
// statistics, so planned runs are reproducible.
type GraphStats struct {
	N         int     `json:"n"`
	M         int     `json:"m"`
	AvgDegree float64 `json:"avg_degree"`
	MaxDegree int     `json:"max_degree"`
	// Skew is MaxDegree/AvgDegree — >> 1 marks power-law-like graphs
	// where degree-balanced partitioning pays and block-locality does
	// not; ~1 marks regular structures (grids, paths) where
	// block-centric execution collapses the superstep count.
	Skew float64 `json:"skew"`
	// LocalFrac is the fraction of edges that stay inside one block
	// under a range partition into the sampled worker count — the same
	// signal the block-centric engine's per-block auto direction choice
	// uses (runtime.BlockLocalFractions).
	LocalFrac float64 `json:"local_frac"`
}

// Sample computes GraphStats from a pinned snapshot, evaluating
// block locality for a range partition into `workers` blocks.
func Sample(csr *graph.CSR, workers int) GraphStats {
	n, m := csr.N(), csr.M()
	gs := GraphStats{N: n, M: m}
	if n == 0 {
		return gs
	}
	// Degree statistics count adjacency arcs (an undirected edge is two
	// arcs), matching OutDegree, so Skew is scale-consistent.
	var arcs int64
	for v := 0; v < n; v++ {
		d := csr.OutDegree(graph.VertexID(v))
		arcs += int64(d)
		if d > gs.MaxDegree {
			gs.MaxDegree = d
		}
	}
	gs.AvgDegree = float64(arcs) / float64(n)
	if gs.AvgDegree > 0 {
		gs.Skew = float64(gs.MaxDegree) / gs.AvgDegree
	}
	if workers <= 0 {
		workers = 1
	}
	owner := rt.PartitionRangeN(n, workers)
	var local, total int64
	for v := 0; v < n; v++ {
		b := owner[v]
		for _, u := range csr.Out(graph.VertexID(v)) {
			total++
			if owner[u] == b {
				local++
			}
		}
	}
	if total > 0 {
		gs.LocalFrac = float64(local) / float64(total)
	}
	return gs
}

// Caps describes what the submitted algorithm supports — the
// capability half of the prepare-time inputs.
type Caps struct {
	// Algorithm is the wire spelling: "pagerank", "cc", or "sssp".
	Algorithm string `json:"algorithm"`
	// HasCombiner reports an associative+commutative message fold,
	// the precondition for the pull path.
	HasCombiner bool `json:"has_combiner"`
	// FixedK marks a bounded all-active run (fixed-K power iteration):
	// exactly K rank folds, which only the FixedKPageRank rows of
	// internal/vc guarantee.
	FixedK bool `json:"fixed_k"`
	// Workers is the job's worker share. The async engine is
	// sequential, so plans may select it only when Workers == 1.
	Workers int `json:"workers"`
}

// Decision is one planner verdict: the plan, the superstep it takes
// effect at (always 0: the plan is decided before the run), and a
// human-readable reason — the trace the serving layer reports in job
// status and the CLIs print.
type Decision struct {
	Step   int    `json:"step"`
	Plan   Plan   `json:"plan"`
	Reason string `json:"reason"`
}

// Thresholds for the decision, calibrated against the planner
// ablation (P·T on opposing workloads): above heavySkew the graph is
// power-law-like and degree-balanced partitioning pays; below
// regularSkew it is structurally regular.
const (
	regularSkew = 1.5
	heavySkew   = 8
	// chainSkew bounds the skew of a chain-like graph. It is looser than
	// regularSkew because thin trees have degree-3 vertices: a
	// caterpillar or a balanced binary tree has average degree 2 and
	// skew exactly 1.5, and block-centric execution beats every
	// vertex-centric engine on both (EXPERIMENTS.md, planner ablation).
	chainSkew = 2
	// chainDegree separates chain/tree-like regular graphs (average
	// degree ~2, diameter ~n) from denser regular structures like
	// grids. Only the former repay block-centric execution: running
	// each block to a local fixpoint collapses a Θ(n)-superstep run to
	// Θ(blocks) barriers at modest extra local work. On denser regular
	// graphs the same local relaxation redoes enough intra-block work
	// to lose to delta-scheduled GAS.
	chainDegree = 2.5
)

// chainLike reports whether the graph is a long thin structure —
// regular degrees around 2 — where superstep count, not per-step work,
// dominates the cost.
func chainLike(gs GraphStats) bool {
	return gs.AvgDegree <= chainDegree && gs.Skew < chainSkew
}

// Initial picks the plan from prepare-time statistics alone — the
// paper's Table-1-as-code. The decision is deterministic in
// (GraphStats, Caps).
func Initial(gs GraphStats, caps Caps) Decision {
	pl := Plan{Engine: EnginePregel, Partition: PartitionHash, Mode: "auto"}
	var reason string
	switch caps.Algorithm {
	case "pagerank":
		// All-active every superstep: gather-side folding does the
		// combiner's work without materializing messages, so GAS wins
		// the dense fixed-K iteration on every structure. The remaining
		// choice is partition balance: power-law graphs (high skew)
		// need degree balancing; everything else hashes.
		pl.Engine = EngineGAS
		if gs.Skew > heavySkew {
			pl.Partition = PartitionDegree
			reason = fmt.Sprintf("all-active fixed-K ranking on a skewed graph (skew %.1f > %g): GAS gather-side folds with degree-balanced partition", gs.Skew, float64(heavySkew))
		} else {
			reason = fmt.Sprintf("all-active fixed-K ranking (skew %.1f): GAS gather-side folds with hash partition", gs.Skew)
		}
	case "cc":
		switch {
		case chainLike(gs):
			pl = Plan{Engine: EngineBlockcentric, Partition: PartitionRange, Mode: "auto"}
			reason = fmt.Sprintf("chain-like structure (skew %.1f < %g, avg degree %.1f <= %g): block-centric label propagation collapses the superstep count", gs.Skew, float64(chainSkew), gs.AvgDegree, chainDegree)
		case gs.Skew > heavySkew:
			pl = Plan{Engine: EngineGAS, Partition: PartitionDegree, Mode: "auto"}
			reason = fmt.Sprintf("skewed structure (skew %.1f > %g): delta-scheduled GAS Hash-Min with degree-balanced partition", gs.Skew, float64(heavySkew))
		default:
			pl = Plan{Engine: EngineGAS, Partition: PartitionHash, Mode: "auto"}
			reason = fmt.Sprintf("short-diameter structure (skew %.1f): delta-scheduled GAS Hash-Min stops touching settled labels", gs.Skew)
		}
	case "sssp":
		switch {
		case chainLike(gs):
			pl = Plan{Engine: EngineBlockcentric, Partition: PartitionRange, Mode: "auto"}
			reason = fmt.Sprintf("chain-like structure (skew %.1f < %g, avg degree %.1f <= %g): block-centric relaxation reaches block-local fixpoints per superstep", gs.Skew, float64(chainSkew), gs.AvgDegree, chainDegree)
		case gs.Skew < regularSkew:
			pl = Plan{Engine: EngineGAS, Partition: PartitionHash, Mode: "auto"}
			reason = fmt.Sprintf("dense regular structure (skew %.1f < %g, avg degree %.1f): GAS wavefront relaxation, gather folds per woken vertex", gs.Skew, regularSkew, gs.AvgDegree)
		default:
			// Narrow frontiers dominate skewed shortest paths, and the
			// gather side would recompute whole weighted in-neighborhoods
			// per woken vertex; the pull path never pays, so pin push.
			pl.Mode = "push"
			if gs.Skew > heavySkew {
				pl.Partition = PartitionDegree
			}
			reason = fmt.Sprintf("irregular structure (skew %.1f): pregel frontier relaxation with %s partition, push pinned", gs.Skew, pl.Partition)
		}
	default:
		reason = fmt.Sprintf("no rules for algorithm %q: pregel defaults", caps.Algorithm)
	}
	return Decision{Step: 0, Plan: pl, Reason: reason}
}
