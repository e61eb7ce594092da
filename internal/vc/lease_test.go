package vc

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	"vcgraph/internal/runtime"
)

// TestLeasedArraysCarryNoState: a run gives its working arrays back to
// the run-buffer cache, and a later run on another graph of the same
// size takes them. That later run must read the values and exact counts
// it reads on an empty cache. The first runs leave the most state
// behind. Pregel PageRank pulls with a combiner for ten supersteps, so
// the mailbox's combining index and the broadcast tags advance ten
// epochs. Gas CC and block-centric PageRank leave flags, labels and
// inbox slots. The later runs then take those arrays for pregel SSSP and
// k-core, gas SSSP, async SSSP and block-centric CC. Two such sequences
// then run at once on one pool; run it under -race -count=10.
func TestLeasedArraysCarryNoState(t *testing.T) {
	first := graph.RMAT(11, 16000, 1)
	second := graph.Grid(32, 64)
	graph.RandomWeights(second, 3)
	if first.N() != second.N() {
		t.Fatalf("graphs have %d and %d vertices, want one size", first.N(), second.N())
	}
	args := Args{Src: 0, Alpha: 0.85, K: 10, Eps: 1e-6}
	dirtying := []Key{{"pagerank", plan.EnginePregel}, {"cc", plan.EngineGAS}, {"pagerank", plan.EngineBlockcentric}}
	checked := []Key{{"sssp", plan.EnginePregel}, {"kcore", plan.EnginePregel}, {"sssp", plan.EngineGAS}, {"sssp", plan.EngineAsync}, {"cc", plan.EngineBlockcentric}}
	type outcome struct {
		vals  []float64
		stats *bsp.Stats
	}
	run := func(key Key, g *graph.Graph) (outcome, error) {
		env := Env{Config: Config{Workers: LeaseShare(key.Engine, 2)}}
		vals, stats, err := Matrix[key](g, args, env)()
		if err != nil {
			return outcome{}, err
		}
		return outcome{vals, counts(stats)}, nil
	}
	runtime.EmptyRunCache()
	defer runtime.EmptyRunCache()
	want := make([]outcome, len(checked))
	for i, key := range checked {
		var err error
		if want[i], err = run(key, second); err != nil {
			t.Fatal(err)
		}
	}
	// sequence dirties the cache with the first graph's runs, then
	// checks the second graph's against want.
	sequence := func() error {
		for _, key := range dirtying {
			if _, err := run(key, first); err != nil {
				return err
			}
		}
		for i, key := range checked {
			got, err := run(key, second)
			if err != nil {
				return err
			}
			for v := range got.vals {
				if math.Float64bits(got.vals[v]) != math.Float64bits(want[i].vals[v]) {
					t.Errorf("%v: value[%d] = %v on taken arrays, %v on new ones", key, v, got.vals[v], want[i].vals[v])
					break
				}
			}
			if !reflect.DeepEqual(got.stats, want[i].stats) {
				t.Errorf("%v: counts differ on taken arrays: work %d vs %d, messages %d vs %d, supersteps %d vs %d", key,
					got.stats.TotalWork, want[i].stats.TotalWork, got.stats.TotalMessages, want[i].stats.TotalMessages,
					got.stats.NumSupersteps(), want[i].stats.NumSupersteps())
			}
		}
		return nil
	}
	runtime.EmptyRunCache()
	if err := sequence(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = sequence()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
