package pregel

import rt "vcgraph/internal/runtime"

// Partitioning lives in the shared runtime kernel (see
// internal/runtime/partition.go); the pregel package re-exports the
// type and the standard strategies under their historical names, which
// every engine config and the vc layer reference.

// Partitioner assigns each vertex to a worker in [0, workers).
type Partitioner = rt.Partitioner

var (
	// PartitionRuns deals runs of consecutive vertices to the
	// least-loaded worker (the engines' default).
	PartitionRuns Partitioner = rt.PartitionRuns
	// PartitionHash spreads vertices round-robin by ID (the Pregel
	// paper's default).
	PartitionHash Partitioner = rt.PartitionHash
	// PartitionRange gives each worker a contiguous ID range.
	PartitionRange Partitioner = rt.PartitionRange
	// PartitionDegreeBalanced balances total adjacent-edge load with a
	// greedy longest-processing-time pass over vertices in decreasing
	// degree order.
	PartitionDegreeBalanced Partitioner = rt.PartitionDegreeBalanced
)
