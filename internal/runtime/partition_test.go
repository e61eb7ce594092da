package runtime

import (
	"slices"
	"testing"

	"vcgraph/internal/graph"
)

// TestDefaultPartitionRuns pins the engines' default placement: on the
// dense-rank benchmark graph it keeps each worker's out-degree load
// within 10 % of the mean (v % W leaves one worker about 1.5× the mean
// there), above 512·W vertices every worker owns whole 64-aligned runs
// of 64, below it every worker still owns a vertex, and the same input
// gives the same owners.
func TestDefaultPartitionRuns(t *testing.T) {
	c := graph.RMAT(15, 250_000, 1).CSR()
	for _, workers := range []int{2, 4} {
		owner := PartitionRunsCSR(c, workers)
		if !slices.Equal(owner, PartitionRunsCSR(c, workers)) {
			t.Fatalf("W=%d: two partitions of one graph differ", workers)
		}
		imb := func(owner []int32) float64 {
			load := make([]int64, workers)
			var total int64
			for v, w := range owner {
				load[w] += int64(c.OutDegree(VertexID(v)))
				total += int64(c.OutDegree(VertexID(v)))
			}
			return float64(slices.Max(load)) * float64(workers) / float64(total)
		}
		got, hash := imb(owner), imb(PartitionHashN(c.N(), workers))
		t.Logf("W=%d: max/mean out-degree load %.3f (v %% W: %.3f)", workers, got, hash)
		if got > 1.10 {
			t.Errorf("W=%d: max/mean out-degree load %.3f, want <= 1.10", workers, got)
		}
		if r := runLength(c.N(), workers); r != 64 {
			t.Fatalf("W=%d: run length %d at n=%d, want 64", workers, r, c.N())
		}
		for v, w := range owner {
			if w != owner[v&^63] {
				t.Fatalf("W=%d: vertex %d on worker %d, its run starts on %d", workers, v, w, owner[v&^63])
			}
		}
	}
	for _, tc := range []struct{ n, workers int }{{1, 1}, {3, 3}, {10, 4}, {144, 4}, {1024, 4}, {2047, 4}, {100, 13}} {
		owner := PartitionRunsCSR(graph.Path(tc.n).CSR(), tc.workers)
		for w := 0; w < tc.workers; w++ {
			if !slices.Contains(owner, int32(w)) {
				t.Errorf("n=%d W=%d: worker %d owns no vertex: %v", tc.n, tc.workers, w, owner)
			}
		}
	}
}
