// Package vc implements the twenty vertex-centric graph algorithms
// benchmarked in Table 1 of "Vertex-Centric Graph Processing: The Good,
// the Bad, and the Ugly" (EDBT 2017), each on top of the
// internal/pregel engine and each returning the engine's BSP
// instrumentation so internal/core can compute the paper's metrics.
package vc

import (
	"errors"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	"vcgraph/internal/runtime"
)

// errNotDirected guards algorithms that require directed input.
var errNotDirected = errors.New("vc: algorithm requires a directed graph")

// errNotBipartite guards BipartiteMatching against non-bipartite input.
var errNotBipartite = errors.New("vc: graph is not bipartite for the given left-side size")

// errTooManySources guards BetweennessShared's int16 source tags.
var errTooManySources = errors.New("vc: superstep sharing supports at most 32768 sources")

// VertexID aliases graph.VertexID.
type VertexID = graph.VertexID

// Config carries the knobs every algorithm takes. The first nine are
// the run environment every engine shares, documented once on
// runtime.EngineConfig (MaxSupersteps counts updates on async); they
// are declared rather than embedded so a Config literal can name them.
// The rest are the pregel algorithms' own.
type Config struct {
	Workers           int
	MaxSupersteps     int
	Partition         runtime.Partitioner
	Mode              runtime.DirectionMode
	CheckpointEvery   int
	FullSnapshotEvery int
	Faults            *runtime.FaultPlan
	Job               *runtime.Job

	// Seed drives the randomized algorithms (Luby MIS, bipartite
	// matching). 0 = 1.
	Seed int64
	// NoCombiner disables message combiners in the algorithms that use
	// one (Hash-Min, SSSP, fixed-K PageRank, double sweep). Used by the
	// combiner ablation to measure the network volume combiners save.
	// It also disables the pull path, which requires a combiner.
	NoCombiner bool
	// FCS enables finishing-computations-serially with the given
	// active-vertex threshold for algorithms that support it (Hash-Min).
	FCS int
	// PackedState selects bit-packed vertex state for the small-domain
	// pregel algorithms that have it (Hash-Min CC, k-core, coloring):
	// per-vertex state lives in a PackedInts store at ⌈log₂ domain⌉
	// bits per entry instead of a full value slot. The message flow is
	// unchanged, so packed runs are byte-identical to dense ones (see
	// the differential suite).
	PackedState bool
}

// engine is the run environment c describes: the only place Config's
// shared fields are copied.
func (c Config) engine() runtime.EngineConfig {
	return runtime.EngineConfig{
		Workers:           c.Workers,
		MaxSupersteps:     c.MaxSupersteps,
		Partition:         c.Partition,
		Mode:              c.Mode,
		CheckpointEvery:   c.CheckpointEvery,
		FullSnapshotEvery: c.FullSnapshotEvery,
		Faults:            c.Faults,
		Job:               c.Job,
	}
}

// pregelConfig is the pregel engine config of env: its run environment
// plus the two pregel knobs Config carries.
func pregelConfig[M any](env Env) pregel.Config[M] {
	return pregel.Config[M]{EngineConfig: env.engine(), Seed: env.Seed, FCSThreshold: env.FCS}
}

// MergeStats combines the statistics of a multi-stage pipeline (several
// engine runs chained into one logical algorithm): superstep sequences
// concatenate, per-vertex balance maxima take the max, totals add.
func MergeStats(parts ...*bsp.Stats) *bsp.Stats {
	out := &bsp.Stats{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.Workers > out.Workers {
			out.Workers = p.Workers
		}
		if p.N > out.N {
			out.N = p.N
		}
		out.Supersteps = append(out.Supersteps, p.Supersteps...)
		if p.MaxStatePerDeg > out.MaxStatePerDeg {
			out.MaxStatePerDeg = p.MaxStatePerDeg
		}
		if p.MaxComputePerDeg > out.MaxComputePerDeg {
			out.MaxComputePerDeg = p.MaxComputePerDeg
		}
		if p.MaxSentPerDeg > out.MaxSentPerDeg {
			out.MaxSentPerDeg = p.MaxSentPerDeg
		}
		if p.MaxRecvPerDeg > out.MaxRecvPerDeg {
			out.MaxRecvPerDeg = p.MaxRecvPerDeg
		}
		out.TotalMessages += p.TotalMessages
		out.HeapInuseDelta += p.HeapInuseDelta
		out.TotalAllocDelta += p.TotalAllocDelta
		out.TotalWork += p.TotalWork
		out.MeasuredTime += p.MeasuredTime
		out.Wall += p.Wall
		out.Clock.Add(p.Clock)
		out.Recovery.Add(p.Recovery)
	}
	return out
}
