package runtime

import "vcgraph/internal/graph"

// Graph partitioning: how vertices map to workers. The paper's §1
// names partitioning among the key system-level optimizations for
// vertex-centric frameworks; the choice changes the per-worker load
// maxima (w_i, s_i, r_i) and therefore the measured superstep cost
// max(w, g·h, L). It also changes the order of a vertex's inbox (lanes
// arrive in source-worker order), so a result is placement-free only
// for a program that does not read that order: combined float sums may
// round differently, and a program that picks "the i-th message" must
// order its messages first (bipartite matching sorts its requests).
// The runtime owns the standard strategies — runs (the engines'
// default), hash, range, and degree-balanced — shared by every
// engine's config.

// Partitioner assigns each vertex to a worker in [0, workers).
type Partitioner func(g *graph.Graph, workers int) []int32

// PartitionRuns cuts the ID space into runs of consecutive vertices and
// deals each run to the least-loaded worker; see PartitionRunsCSR.
func PartitionRuns(g *graph.Graph, workers int) []int32 {
	return PartitionRunsCSR(g.CSR(), workers)
}

// PartitionRunsCSR is the default placement of pregel and gas. It cuts
// [0, n) into runs of runLength(n, workers) consecutive vertices and,
// in ID order, gives each run to the worker with the least load so far
// (ties to the lowest worker), a vertex weighing its out-degree plus
// one. A run keeps whole cache lines of every per-vertex array on one
// worker, which v % W does not; the greedy deal evens out the degree
// skew that makes v % W uneven on R-MAT, where every ID bit is 0 with
// probability a+b, so even IDs carry about 76 % of the arcs. Degrees
// come from the offsets: no transpose is built.
func PartitionRunsCSR(c *graph.CSR, workers int) []int32 {
	n := c.N()
	owner := make([]int32, n)
	load := make([]int64, workers)
	r := runLength(n, workers)
	for lo := 0; lo < n; lo += r {
		best := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		hi := min(lo+r, n)
		load[best] += int64(c.Offsets[hi]-c.Offsets[lo]) + int64(hi-lo)
		for v := lo; v < hi; v++ {
			owner[v] = int32(best)
		}
	}
	return owner
}

// runLength is PartitionRunsCSR's run length: 64 vertices (a 64-byte
// line of a 1-byte array, eight of an 8-byte one), shrunk below
// n = 512·workers so that each worker gets about eight runs. Every run
// weighs at least 1, so the first `workers` runs go to distinct
// workers, and every worker owns a vertex whenever n >= workers.
func runLength(n, workers int) int { return max(1, min(64, n/(8*workers))) }

// PartitionHash spreads vertices round-robin by ID, v % W: the Pregel
// paper's default, kept as the partition ablation's baseline row.
func PartitionHash(g *graph.Graph, workers int) []int32 {
	return PartitionHashN(g.N(), workers)
}

// PartitionHashN is PartitionHash for a known vertex count.
func PartitionHashN(n, workers int) []int32 {
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = int32(v % workers)
	}
	return owner
}

// PartitionRange gives each worker a contiguous ID range (locality for
// ID-correlated graphs, but prone to imbalance when degree correlates
// with ID, as in preferential-attachment graphs).
func PartitionRange(g *graph.Graph, workers int) []int32 {
	return PartitionRangeN(g.N(), workers)
}

// PartitionRangeN is PartitionRange for a known vertex count.
func PartitionRangeN(n, workers int) []int32 {
	owner := make([]int32, n)
	if n == 0 {
		return owner
	}
	for v := range owner {
		owner[v] = int32(v * workers / n)
		if owner[v] >= int32(workers) {
			owner[v] = int32(workers) - 1
		}
	}
	return owner
}

// PartitionDegreeBalanced greedily assigns vertices in decreasing
// degree order to the currently lightest worker (longest-processing-
// time heuristic), balancing total adjacent-edge load rather than
// vertex count. Degrees come from the graph's CSR snapshot (building
// the transpose for directed graphs), so no EnsureIn call is required
// beforehand.
func PartitionDegreeBalanced(g *graph.Graph, workers int) []int32 {
	return PartitionDegreeBalancedCSR(g.CSR(), workers)
}

// PartitionDegreeBalancedCSR is PartitionDegreeBalanced evaluated
// against a specific (typically pinned) CSR generation instead of the
// graph's current one.
func PartitionDegreeBalancedCSR(c *graph.CSR, workers int) []int32 {
	n := c.N()
	c.EnsureIn()
	owner := make([]int32, n)
	order := make([]graph.VertexID, n)
	// Counting sort by degree, descending.
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := c.TotalDegree(graph.VertexID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	buckets := make([][]graph.VertexID, maxDeg+1)
	for v := 0; v < n; v++ {
		d := c.TotalDegree(graph.VertexID(v))
		buckets[d] = append(buckets[d], graph.VertexID(v))
	}
	idx := 0
	for d := maxDeg; d >= 0; d-- {
		for _, v := range buckets[d] {
			order[idx] = v
			idx++
		}
	}
	load := make([]int64, workers)
	for _, v := range order {
		best := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		owner[v] = int32(best)
		load[best] += int64(c.TotalDegree(v) + 1)
	}
	return owner
}

// BlockLocalFractions computes, for each of the `blocks` partitions in
// owner, the fraction of its vertices' out-edges whose destination lies
// in the same partition. It is the signal behind the block-centric
// engine's per-block auto direction choice (block-local pull pays off
// only where intra-block traffic dominates) and doubles as a planner
// input: a high overall local fraction under a range partition marks a
// graph whose structure block-centric execution can exploit. Blocks
// with no out-edges report 0.
func BlockLocalFractions(c *graph.CSR, owner []int32, blocks int) []float64 {
	local := make([]int64, blocks)
	total := make([]int64, blocks)
	var s graph.Scratch
	for v := 0; v < c.N() && v < len(owner); v++ {
		b := owner[v]
		for _, u := range c.OutSpan(VertexID(v), &s) {
			total[b]++
			if owner[u] == b {
				local[b]++
			}
		}
	}
	frac := make([]float64, blocks)
	for b := range frac {
		if total[b] > 0 {
			frac[b] = float64(local[b]) / float64(total[b])
		}
	}
	return frac
}
