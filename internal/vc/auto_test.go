package vc

import (
	"fmt"
	"testing"

	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
)

// autoCCGraph: a 48-cycle-free chain 1-2-...-47 closed onto vertex 0
// at the far end, plus an isolated vertex 48. The minimum label (0)
// sits at the end of the chain, so every engine needs many barriers:
// label propagation runs against the FIFO sweep order (async) and
// across all range blocks (block-centric).
func autoCCGraph() *graph.Graph {
	g := graph.New(49, false)
	for i := graph.VertexID(1); i < 47; i++ {
		g.AddEdge(i, i+1)
	}
	g.AddEdge(47, 0)
	return g
}

// autoPRGraph: a directed ring with chords and a dangling vertex
// (13's ring edge removed), so ranks are non-uniform and the dangling
// leak is exercised.
func autoPRGraph() *graph.Graph {
	g := graph.New(30, true)
	for i := graph.VertexID(0); i < 30; i++ {
		if i == 13 {
			continue // dangling
		}
		g.AddEdge(i, (i+1)%30)
	}
	g.AddEdge(0, 5)
	g.AddEdge(0, 9)
	g.AddEdge(7, 2)
	g.AddEdge(21, 4)
	return g
}

// TestAutoForcedPlanPageRank runs auto PageRank under each forced
// plan of the canonical fold-order family: single-worker pregel, gas
// at any worker count, and block-centric push over a range partition
// must all return the native pregel ranks bit for bit.
func TestAutoForcedPlanPageRank(t *testing.T) {
	g := autoPRGraph()
	const alpha, k = 0.85, 20
	want, err := PageRank(g, alpha, k, Config{Workers: 1})
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	for _, c := range []struct {
		p       plan.Plan
		workers int
	}{
		{plan.Plan{Engine: plan.EnginePregel, Partition: plan.PartitionHash, Mode: "auto"}, 1},
		{plan.Plan{Engine: plan.EngineGAS, Partition: plan.PartitionHash, Mode: "auto"}, 1},
		{plan.Plan{Engine: plan.EngineGAS, Partition: plan.PartitionHash, Mode: "auto"}, 4},
		{plan.Plan{Engine: plan.EngineBlockcentric, Partition: plan.PartitionRange, Mode: "auto"}, 1},
		{plan.Plan{Engine: plan.EngineBlockcentric, Partition: plan.PartitionRange, Mode: "auto"}, 4},
	} {
		t.Run(fmt.Sprintf("%s/w%d", c.p.Engine, c.workers), func(t *testing.T) {
			res, ar, err := PrepareAutoPageRank(g, alpha, k, AutoConfig{Config: Config{Workers: c.workers}, Plan: &c.p})()
			if err != nil {
				t.Fatalf("auto: %v", err)
			}
			if ar.Segments != 1 || len(ar.Decisions) != 1 || ar.Decisions[0].Plan != c.p {
				t.Fatalf("forced plan not run as given: %d segments, %+v", ar.Segments, ar.Decisions)
			}
			for v := range want.Ranks {
				if res.Ranks[v] != want.Ranks[v] {
					t.Fatalf("rank[%d] = %v, want %v", v, res.Ranks[v], want.Ranks[v])
				}
			}
		})
	}
}

// TestAutoPlannerInitialCC: on a regular chain (skew ~1) the planner
// must start block-centric, and the result must match the native run.
func TestAutoPlannerInitialCC(t *testing.T) {
	g := autoCCGraph()
	want, err := HashMinCC(g, Config{Workers: 1})
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	res, ar, err := PrepareAutoHashMinCC(g, AutoConfig{Config: Config{Workers: 4}})()
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if got := ar.Decisions[0].Plan.Engine; got != plan.EngineBlockcentric {
		t.Fatalf("initial engine = %q, want blockcentric (skew %.2f)", got, ar.GraphStats.Skew)
	}
	for v := range want.Color {
		if res.Color[v] != want.Color[v] {
			t.Fatalf("color[%d] = %d, want %d", v, res.Color[v], want.Color[v])
		}
	}
}

// TestAutoPageRankPlanner: the planner keeps fixed-K PageRank on one
// engine (FixedK rules out switching) — GAS, whose gather-side folds
// sit in the canonical fold-order family — and the run matches the
// native pregel ranks at a single worker bit-for-bit.
func TestAutoPageRankPlanner(t *testing.T) {
	g := autoPRGraph()
	const alpha, k = 0.85, 15
	want, err := PageRank(g, alpha, k, Config{Workers: 1})
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	res, ar, err := PrepareAutoPageRank(g, alpha, k, AutoConfig{Config: Config{Workers: 1}})()
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if ar.Segments != 1 || len(ar.Decisions) != 1 {
		t.Fatalf("fixed-K run must not switch: %d segments, %+v", ar.Segments, ar.Decisions)
	}
	if got := ar.Decisions[0].Plan.Engine; got != plan.EngineGAS {
		t.Fatalf("initial engine = %q, want gas", got)
	}
	for v := range want.Ranks {
		if res.Ranks[v] != want.Ranks[v] {
			t.Fatalf("rank[%d] = %v, want %v", v, res.Ranks[v], want.Ranks[v])
		}
	}
}
