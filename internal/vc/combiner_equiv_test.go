package vc

import (
	"math"
	"testing"

	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	"vcgraph/internal/runtime"
)

// Combiner equivalence: a combiner is a pure network optimization — it
// shrinks h (the per-worker message volume the BSP model charges) but
// must not change what any vertex computes or when the run terminates.
// These tests pin that contract for the three Table 1 algorithms that
// admit one, across worker counts and both partitioners, so a
// regression in sender-side combining (grouping, lane order, raw-count
// bookkeeping) shows up as a result or superstep-count difference.
//
// Every run pins Mode=push: a combiner also unlocks the pull path,
// whose whole point is to change the wire-level accounting (broadcasts
// stop being materialized as messages), which would trip the raw-count
// comparisons below. Push/pull equivalence has its own suite in
// direction_test.go.

var equivCases = []struct {
	name    string
	workers int
	part    pregel.Partitioner
}{
	{"w1-hash", 1, pregel.PartitionHash},
	{"w2-hash", 2, pregel.PartitionHash},
	{"w8-hash", 8, pregel.PartitionHash},
	{"w1-range", 1, pregel.PartitionRange},
	{"w2-range", 2, pregel.PartitionRange},
	{"w8-range", 8, pregel.PartitionRange},
}

func TestCombinerEquivalenceSSSP(t *testing.T) {
	g := graph.PreferentialAttachment(300, 3, 5)
	graph.RandomWeights(g, 7)
	for _, tc := range equivCases {
		t.Run(tc.name, func(t *testing.T) {
			with, err := SSSP(g, 0, Config{Workers: tc.workers, Partition: tc.part})
			if err != nil {
				t.Fatal(err)
			}
			without, err := SSSP(g, 0, Config{Workers: tc.workers, Partition: tc.part, NoCombiner: true})
			if err != nil {
				t.Fatal(err)
			}
			// Min is exactly associative and commutative on float64, so
			// the distances must match bit for bit.
			for v := range with.Dist {
				if with.Dist[v] != without.Dist[v] {
					t.Fatalf("vertex %d: dist %v with combiner, %v without", v, with.Dist[v], without.Dist[v])
				}
			}
			if a, b := with.Stats.NumSupersteps(), without.Stats.NumSupersteps(); a != b {
				t.Fatalf("supersteps %d with combiner, %d without", a, b)
			}
			if with.Stats.TotalMessages != without.Stats.TotalMessages {
				t.Fatalf("raw message counts differ: %d vs %d (combiner must not change raw Stats)",
					with.Stats.TotalMessages, without.Stats.TotalMessages)
			}
		})
	}
}

func TestCombinerEquivalenceHashMin(t *testing.T) {
	g := graph.WattsStrogatz(400, 2, 0.1, 9)
	for _, tc := range equivCases {
		t.Run(tc.name, func(t *testing.T) {
			with, err := HashMinCC(g, Config{Workers: tc.workers, Partition: tc.part, Mode: runtime.DirectionPush})
			if err != nil {
				t.Fatal(err)
			}
			without, err := HashMinCC(g, Config{Workers: tc.workers, Partition: tc.part, NoCombiner: true, Mode: runtime.DirectionPush})
			if err != nil {
				t.Fatal(err)
			}
			for v := range with.Color {
				if with.Color[v] != without.Color[v] {
					t.Fatalf("vertex %d: label %d with combiner, %d without", v, with.Color[v], without.Color[v])
				}
			}
			if a, b := with.Stats.NumSupersteps(), without.Stats.NumSupersteps(); a != b {
				t.Fatalf("supersteps %d with combiner, %d without", a, b)
			}
			if with.Stats.TotalMessages != without.Stats.TotalMessages {
				t.Fatalf("raw message counts differ: %d vs %d", with.Stats.TotalMessages, without.Stats.TotalMessages)
			}
		})
	}
}

// PageRank's sum combiner regroups float64 additions (sum is
// associative only up to rounding), so ranks are compared within an
// epsilon while superstep counts and raw message totals stay exact.
// The check drives the engine directly to control the combiner.
func TestCombinerEquivalencePageRank(t *testing.T) {
	g := graph.PreferentialAttachment(300, 3, 5)
	run := func(workers int, part pregel.Partitioner, combine bool) (*pregel.Result[prValue], error) {
		cfg := pregel.Config[float64]{EngineConfig: runtime.EngineConfig{Workers: workers, Partition: part, Mode: runtime.DirectionPush}}
		if combine {
			cfg.Combiner = func(a, b float64) float64 { return a + b }
		}
		eng := pregel.NewEngine[prValue, float64](g, &prProgram{n: g.N(), alpha: 0.85, k: 20}, cfg)
		return eng.Run()
	}
	for _, tc := range equivCases {
		t.Run(tc.name, func(t *testing.T) {
			with, err := run(tc.workers, tc.part, true)
			if err != nil {
				t.Fatal(err)
			}
			without, err := run(tc.workers, tc.part, false)
			if err != nil {
				t.Fatal(err)
			}
			for v := range with.Values {
				a, b := with.Values[v].rank, without.Values[v].rank
				if math.Abs(a-b) > 1e-12 {
					t.Fatalf("vertex %d: rank %v with combiner, %v without (Δ=%g)", v, a, b, math.Abs(a-b))
				}
			}
			if a, b := with.Supersteps, without.Supersteps; a != b {
				t.Fatalf("supersteps %d with combiner, %d without", a, b)
			}
			if with.Stats.TotalMessages != without.Stats.TotalMessages {
				t.Fatalf("raw message counts differ: %d vs %d", with.Stats.TotalMessages, without.Stats.TotalMessages)
			}
			if with.Stats.InboxDeliveries >= without.Stats.InboxDeliveries {
				t.Fatalf("combiner did not reduce inbox placements: %d vs %d",
					with.Stats.InboxDeliveries, without.Stats.InboxDeliveries)
			}
		})
	}
}
