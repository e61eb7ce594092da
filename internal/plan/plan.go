// Package plan implements the adaptive plan layer: a planner that
// samples cheap graph statistics at prepare time and runtime signals at
// superstep barriers, and emits an execution Plan — which engine to
// run, how to partition, which message direction to use, and whether to
// finish serially. The paper's thesis is that no single vertex-centric
// configuration wins everywhere ("the good, the bad, and the ugly");
// this package encodes the paper's findings as decision rules so a job
// submitted with engine "auto" lands on a sensible configuration
// without the user reading Table 1, and can be re-planned mid-run with
// a live engine handoff at a superstep barrier (see internal/vc's auto
// runner and runtime.EngineConfig.Replan).
//
// The package is deliberately small and engine-agnostic: it imports
// only the graph snapshot, the instrumentation record, and the shared
// runtime's partitioners. The orchestration — exporting vertex state,
// tearing an engine down, resuming under another — lives with the
// algorithms in internal/vc.
package plan

import (
	"fmt"

	"vcgraph/internal/bsp"
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

// Partition strategies a Plan can select.
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
	// FCS, when positive, finishes computations serially below this
	// active-vertex threshold (engines that support it).
	FCS int `json:"fcs,omitempty"`
}

// DirectionMode resolves the Mode spelling to the runtime enum.
func (p Plan) DirectionMode() rt.DirectionMode {
	m, _ := rt.ParseDirectionMode(p.Mode)
	return m
}

// Owner materializes the plan's partition as a vertex->worker
// assignment against a pinned snapshot. Deriving owners from the
// snapshot (never the live graph) is what makes mid-run re-preparation
// safe while writers grow the graph.
func (p Plan) Owner(csr *graph.CSR, workers int) []int32 {
	switch p.Partition {
	case PartitionRange:
		return rt.PartitionRangeN(csr.N(), workers)
	case PartitionDegree:
		return rt.PartitionDegreeBalancedCSR(csr, workers)
	default:
		return rt.PartitionHashN(csr.N(), workers)
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
	// every superstep costs the same, so mid-run switching cannot pay
	// for itself and the planner only decides once.
	FixedK bool `json:"fixed_k"`
	// Workers is the job's worker share. The async engine is
	// sequential, so plans may select it only when Workers == 1.
	Workers int `json:"workers"`
}

// Signals are the runtime statistics harvested from the superstep
// record at a barrier — the replanning half of the planner's inputs.
type Signals struct {
	// Frontier is the active frontier entering the latest superstep.
	Frontier int64 `json:"frontier"`
	// Growth is the frontier ratio between the two latest supersteps
	// (1 when there is no history).
	Growth float64 `json:"growth"`
	// PulledFrac is the fraction of window supersteps that ran pulled.
	PulledFrac float64 `json:"pulled_frac"`
	// CostPerStep is the mean measured cost-model time per superstep
	// over the window (bsp.SuperstepStats.Cost).
	CostPerStep float64 `json:"cost_per_step"`
	// NarrowSteps counts the consecutive trailing supersteps whose
	// frontier stayed below narrowFrac·n — the signature of long-tail
	// propagation that block-centric execution collapses.
	NarrowSteps int `json:"narrow_steps"`
}

// Harvest computes Signals from the trailing `window` entries of a
// superstep record. narrowFrac is the narrow-frontier threshold as a
// fraction of n (<= 0 means DefaultNarrowFrac).
func Harvest(steps []bsp.SuperstepStats, n, window int, narrowFrac float64) Signals {
	var sig Signals
	sig.Growth = 1
	if len(steps) == 0 {
		return sig
	}
	if narrowFrac <= 0 {
		narrowFrac = DefaultNarrowFrac
	}
	if window <= 0 || window > len(steps) {
		window = len(steps)
	}
	last := steps[len(steps)-1]
	sig.Frontier = last.Frontier
	if len(steps) >= 2 {
		if prev := steps[len(steps)-2].Frontier; prev > 0 {
			sig.Growth = float64(last.Frontier) / float64(prev)
		}
	}
	var pulled int
	var cost float64
	for _, ss := range steps[len(steps)-window:] {
		if ss.Pulled {
			pulled++
		}
		cost += ss.Cost
	}
	sig.PulledFrac = float64(pulled) / float64(window)
	sig.CostPerStep = cost / float64(window)
	narrow := narrowFrac * float64(n)
	for i := len(steps) - 1; i >= 0; i-- {
		if float64(steps[i].Frontier) >= narrow {
			break
		}
		sig.NarrowSteps++
	}
	return sig
}

// Decision is one planner verdict: the plan, the superstep it takes
// effect at (0 for the initial decision), and a human-readable reason —
// the trace the serving layer reports in job status and the CLIs print.
type Decision struct {
	Step   int    `json:"step"`
	Plan   Plan   `json:"plan"`
	Reason string `json:"reason"`
}

// Planner holds the replanning knobs. The zero value is usable: every
// field has a default.
type Planner struct {
	// Every is the replan cadence: the Replan hook consults the planner
	// every Every barriers (default DefaultEvery).
	Every int
	// MaxSwitches caps live handoffs per job (default
	// DefaultMaxSwitches) — with monotone algorithms and a one-way
	// pregel/gas -> blockcentric rule this is belt-and-braces, but it
	// makes non-termination structurally impossible.
	MaxSwitches int
	// NarrowFrac is the frontier fraction of n below which a superstep
	// counts as narrow (default DefaultNarrowFrac).
	NarrowFrac float64
}

// Planner defaults.
const (
	DefaultEvery       = 8
	DefaultMaxSwitches = 2
	DefaultNarrowFrac  = 0.02
	// DefaultFCS is the finish-computations-serially threshold planned
	// for pregel Hash-Min (Salihoglu & Widom's FCS pays once the active
	// frontier is tiny; 64 keeps the serial tail bounded).
	DefaultFCS = 64
)

// ReplanEvery returns the effective replan cadence.
func (p *Planner) ReplanEvery() int {
	if p == nil || p.Every <= 0 {
		return DefaultEvery
	}
	return p.Every
}

// SwitchBudget returns the effective handoff cap.
func (p *Planner) SwitchBudget() int {
	if p == nil || p.MaxSwitches <= 0 {
		return DefaultMaxSwitches
	}
	return p.MaxSwitches
}

func (p *Planner) narrowFrac() float64 {
	if p == nil || p.NarrowFrac <= 0 {
		return DefaultNarrowFrac
	}
	return p.NarrowFrac
}

// HarvestWindow is the replan cadence doubling as the signal window.
func (p *Planner) HarvestWindow(steps []bsp.SuperstepStats, n int) Signals {
	return Harvest(steps, n, p.ReplanEvery(), p.narrowFrac())
}

// Thresholds for the initial decision, calibrated against the planner
// ablation (P·T on opposing workloads): above heavySkew the graph is
// power-law-like and degree-balanced partitioning pays; below
// regularSkew it is structurally regular.
const (
	regularSkew = 1.5
	heavySkew   = 8
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
	return gs.Skew < regularSkew && gs.AvgDegree <= chainDegree
}

// Initial picks the starting plan from prepare-time statistics alone —
// the paper's Table-1-as-code. The decision is deterministic in
// (GraphStats, Caps).
func (p *Planner) Initial(gs GraphStats, caps Caps) Decision {
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
			reason = fmt.Sprintf("chain-like structure (skew %.1f < %g, avg degree %.1f <= %g): block-centric label propagation collapses the superstep count", gs.Skew, regularSkew, gs.AvgDegree, chainDegree)
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
			reason = fmt.Sprintf("chain-like structure (skew %.1f < %g, avg degree %.1f <= %g): block-centric relaxation reaches block-local fixpoints per superstep", gs.Skew, regularSkew, gs.AvgDegree, chainDegree)
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

// Replan re-evaluates a running job at a superstep barrier. step is
// the global superstep index, switches the number of handoffs already
// performed. It returns the new decision and true when a live handoff
// is warranted; the caller guarantees step > 0 (a finished or unstarted
// run never switches). The rule set is deliberately one-way —
// vertex-centric engines hand off to block-centric when the frontier
// stays narrow, never back — so replanning cannot oscillate.
func (p *Planner) Replan(cur Plan, gs GraphStats, caps Caps, sig Signals, step, switches int) (Decision, bool) {
	if switches >= p.SwitchBudget() {
		return Decision{}, false
	}
	if caps.FixedK {
		// Bounded all-active run: every remaining superstep costs the
		// same regardless of engine, so a switch cannot pay for itself.
		return Decision{}, false
	}
	if cur.Engine != EnginePregel && cur.Engine != EngineGAS {
		return Decision{}, false
	}
	if gs.AvgDegree > chainDegree {
		// Dense graphs: a narrow frontier is just a wavefront that will
		// widen again (or a short tail); block-centric whole-block
		// relaxation would redo more intra-block work than the saved
		// barriers are worth. Only long thin structures switch.
		return Decision{}, false
	}
	// Sustained narrow frontier on a chain-like structure: the run is in
	// long-tail propagation (Θ(diameter) supersteps touching few
	// vertices each). Block-centric execution runs each block to a local
	// fixpoint per superstep, collapsing the tail to Θ(blocks) barriers.
	if sig.Frontier > 0 && sig.NarrowSteps >= p.ReplanEvery() {
		np := Plan{Engine: EngineBlockcentric, Partition: PartitionRange, Mode: "auto"}
		return Decision{
			Step: step,
			Plan: np,
			Reason: fmt.Sprintf("frontier narrow for %d straight supersteps (%d of %d vertices): handing off %s -> blockcentric at barrier %d",
				sig.NarrowSteps, sig.Frontier, gs.N, cur.Engine, step),
		}, true
	}
	return Decision{}, false
}
