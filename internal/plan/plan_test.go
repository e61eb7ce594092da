package plan_test

import (
	"fmt"
	"math"
	"testing"

	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
)

// TestInitialDecisionTable is the golden decision table: for every
// graph generator × algorithm the sampler and the initial planner rule
// must land on exactly this plan. The table is the paper's Table 1
// reduced to code — changing a planner rule means consciously editing
// the expectations here.
func TestInitialDecisionTable(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(256)},
		{"cycle", graph.Cycle(200)},
		{"grid", graph.Grid(16, 16)},
		{"star", graph.Star(128)},
		{"powerlaw", graph.PreferentialAttachment(400, 3, 7)},
		{"random", graph.Random(300, 900, 5)},
		{"caterpillar", graph.CaterpillarTree(256)},
		{"bintree", graph.BalancedBinaryTree(255)},
	}
	type key struct{ graph, algo string }
	golden := map[key]plan.Plan{
		// Chain-like regular structures (average degree ~2): block-centric
		// collapses the Θ(n) supersteps of the traversal algorithms;
		// fixed-K PageRank always runs GAS (gather-side folds).
		{"path", "pagerank"}:  {Engine: "gas", Partition: "hash", Mode: "auto"},
		{"path", "cc"}:        {Engine: "blockcentric", Partition: "range", Mode: "auto"},
		{"path", "sssp"}:      {Engine: "blockcentric", Partition: "range", Mode: "auto"},
		{"cycle", "pagerank"}: {Engine: "gas", Partition: "hash", Mode: "auto"},
		{"cycle", "cc"}:       {Engine: "blockcentric", Partition: "range", Mode: "auto"},
		{"cycle", "sssp"}:     {Engine: "blockcentric", Partition: "range", Mode: "auto"},
		// Dense regular structures (grids): regular but not chain-like,
		// so block-local fixpoints redo too much intra-block work —
		// delta-scheduled GAS wins everything here.
		{"grid", "pagerank"}: {Engine: "gas", Partition: "hash", Mode: "auto"},
		{"grid", "cc"}:       {Engine: "gas", Partition: "hash", Mode: "auto"},
		{"grid", "sssp"}:     {Engine: "gas", Partition: "hash", Mode: "auto"},
		// Heavy skew: degree-balanced partitions; CC stays GAS (labels
		// settle fast, delta scheduling skips them), SSSP goes pregel
		// with push pinned (gathers recompute weighted in-neighborhoods).
		{"star", "pagerank"}:     {Engine: "gas", Partition: "degree", Mode: "auto"},
		{"star", "cc"}:           {Engine: "gas", Partition: "degree", Mode: "auto"},
		{"star", "sssp"}:         {Engine: "pregel", Partition: "degree", Mode: "push"},
		{"powerlaw", "pagerank"}: {Engine: "gas", Partition: "degree", Mode: "auto"},
		{"powerlaw", "cc"}:       {Engine: "gas", Partition: "degree", Mode: "auto"},
		{"powerlaw", "sssp"}:     {Engine: "pregel", Partition: "degree", Mode: "push"},
		// Moderate irregularity: hash partitions.
		{"random", "pagerank"}: {Engine: "gas", Partition: "hash", Mode: "auto"},
		{"random", "cc"}:       {Engine: "gas", Partition: "hash", Mode: "auto"},
		{"random", "sssp"}:     {Engine: "pregel", Partition: "hash", Mode: "push"},
		// Thin trees: average degree 2 and skew exactly 1.5 (degree-3
		// vertices) still count as chain-like.
		{"caterpillar", "pagerank"}: {Engine: "gas", Partition: "hash", Mode: "auto"},
		{"caterpillar", "cc"}:       {Engine: "blockcentric", Partition: "range", Mode: "auto"},
		{"caterpillar", "sssp"}:     {Engine: "blockcentric", Partition: "range", Mode: "auto"},
		{"bintree", "pagerank"}:     {Engine: "gas", Partition: "hash", Mode: "auto"},
		{"bintree", "cc"}:           {Engine: "blockcentric", Partition: "range", Mode: "auto"},
		{"bintree", "sssp"}:         {Engine: "blockcentric", Partition: "range", Mode: "auto"},
	}
	for _, gc := range graphs {
		csr := gc.g.Pin()
		gs := plan.Sample(csr, 4)
		for _, algo := range []string{"pagerank", "cc", "sssp"} {
			caps := plan.Caps{Algorithm: algo, HasCombiner: true, FixedK: algo == "pagerank", Workers: 4}
			d := plan.Initial(gs, caps)
			want := golden[key{gc.name, algo}]
			if d.Plan != want {
				t.Errorf("%s/%s: plan %+v, want %+v (stats %+v)", gc.name, algo, d.Plan, want, gs)
			}
			if d.Reason == "" {
				t.Errorf("%s/%s: decision has no reason", gc.name, algo)
			}
			if d.Step != 0 {
				t.Errorf("%s/%s: initial decision step = %d", gc.name, algo, d.Step)
			}
		}
		gc.g.Unpin(csr)
	}
}

// TestSampleDeterministic: the same snapshot must always produce the
// same statistics (seeded generators included), so plans are
// reproducible run to run.
func TestSampleDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		a := graph.PreferentialAttachment(200, 2, seed)
		b := graph.PreferentialAttachment(200, 2, seed)
		ca, cb := a.Pin(), b.Pin()
		sa, sb := plan.Sample(ca, 4), plan.Sample(cb, 4)
		if sa != sb {
			t.Fatalf("seed %d: samples differ: %+v vs %+v", seed, sa, sb)
		}
		a.Unpin(ca)
		b.Unpin(cb)
	}
}

// TestSampleStats sanity-checks the sampled quantities on a known
// shape: a star of n leaves has max degree n, one shared block under a
// range partition holding the hub.
func TestSampleStats(t *testing.T) {
	g := graph.Star(64) // hub 0 + 63 leaves
	csr := g.Pin()
	defer g.Unpin(csr)
	gs := plan.Sample(csr, 4)
	if gs.N != 64 || gs.MaxDegree != 63 {
		t.Fatalf("n=%d maxdeg=%d, want 64/63", gs.N, gs.MaxDegree)
	}
	wantAvg := float64(2*63) / 64
	if math.Abs(gs.AvgDegree-wantAvg) > 1e-12 {
		t.Fatalf("avg degree %v, want %v", gs.AvgDegree, wantAvg)
	}
	if gs.Skew < 8 {
		t.Fatalf("star skew %v, want heavy (> 8)", gs.Skew)
	}
	if gs.LocalFrac <= 0 || gs.LocalFrac >= 1 {
		t.Fatalf("local fraction %v out of (0,1)", gs.LocalFrac)
	}
}

// TestPlanOwner checks that each partition spelling materializes a
// snapshot-sized owner array with the right worker range.
func TestPlanOwner(t *testing.T) {
	g := graph.Random(100, 300, 2)
	csr := g.Pin()
	defer g.Unpin(csr)
	for _, part := range []string{plan.PartitionHash, plan.PartitionRange, plan.PartitionDegree} {
		p := plan.Plan{Partition: part}
		owner := p.Owner(csr, 4)
		if len(owner) != 100 {
			t.Fatalf("%s: owner length %d", part, len(owner))
		}
		seen := map[int32]bool{}
		for v, w := range owner {
			if w < 0 || w >= 4 {
				t.Fatalf("%s: owner[%d] = %d out of range", part, v, w)
			}
			seen[w] = true
		}
		if len(seen) != 4 {
			t.Fatalf("%s: only %d of 4 workers used", part, len(seen))
		}
	}
}

// TestPlanJSONSpellings: a Plan marshals with the wire spellings the
// serving layer exposes in job status.
func TestPlanJSONSpellings(t *testing.T) {
	p := plan.Plan{Engine: "pregel", Partition: "degree", Mode: "push"}
	got := fmt.Sprintf("%+v", p)
	if got == "" {
		t.Fatal("unreachable")
	}
	if p.DirectionMode().String() != "push" {
		t.Fatalf("direction mode %v", p.DirectionMode())
	}
}
