package async_test

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	. "vcgraph/internal/async"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
	"vcgraph/internal/seq"
	"vcgraph/internal/vc"
)

func TestAsyncCCMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(80, 120, seed)
		labels, _, err := ConnectedComponents(g, Config{})
		if err != nil {
			return false
		}
		var ops seq.Ops
		want := seq.Components(g, &ops)
		for v := range want {
			if labels[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncSSSPMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomConnected(60, 180, seed)
		graph.RandomWeights(g, seed+3)
		dist, _, err := SSSP(g, 0, Config{})
		if err != nil {
			return false
		}
		var ops seq.Ops
		want := seq.Dijkstra(g, 0, &ops)
		for v := range want {
			if math.IsInf(want[v], 1) {
				if dist[v] < 1e307 {
					return false
				}
				continue
			}
			if math.Abs(dist[v]-want[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncPropagatesWithinOneDrain(t *testing.T) {
	// On a path, one FIFO drain moves a label the whole way: total
	// updates stay O(n), versus Θ(n) supersteps of the BSP engine.
	g := graph.Path(4096)
	labels, ccRes, err := ConnectedComponents(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range labels {
		if l != 0 {
			t.Fatalf("vertex %d label %d", v, l)
		}
	}
	if updates := ccRes.Updates; updates > 5*g.N() {
		t.Fatalf("updates = %d; FIFO async should stay ~O(n) on a path", updates)
	}
	// Contrast: the synchronous engine needs Θ(n) supersteps.
	bsp, err := vc.HashMinCC(g, vc.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bsp.Stats.NumSupersteps() < g.N()/2 {
		t.Fatalf("unexpectedly fast BSP run: %d supersteps", bsp.Stats.NumSupersteps())
	}
}

func TestAsyncUpdateCap(t *testing.T) {
	g := graph.Path(100)
	if _, _, err := ConnectedComponents(g, Config{MaxSupersteps: 5}); err == nil {
		t.Fatal("expected update cap error")
	}
}

func TestAsyncEmptyAndSingleton(t *testing.T) {
	if labels, res, err := ConnectedComponents(graph.New(0, false), Config{}); err != nil || len(labels) != 0 || res.Updates != 0 {
		t.Fatalf("empty: %v %v %v", labels, res.Updates, err)
	}
	labels, _, err := ConnectedComponents(graph.New(1, false), Config{})
	if err != nil || labels[0] != 0 {
		t.Fatalf("singleton: %v %v", labels, err)
	}
}

func TestAsyncDeterministic(t *testing.T) {
	g := graph.RandomConnected(200, 500, 9)
	graph.RandomWeights(g, 10)
	a, ua, err := SSSP(g, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, ub, err := SSSP(g, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ua.Updates != ub.Updates {
		t.Fatalf("update counts differ: %d vs %d", ua.Updates, ub.Updates)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("vertex %d differs", v)
		}
	}
}

// A crash due at the barrier after the last epoch fires like any other:
// the run rolls back to the frame saved after that part-full epoch, whose
// update count is not a multiple of the epoch length, and ends with the
// clean run's labels and update count.
func TestAsyncCrashAtFinalBarrier(t *testing.T) {
	g := graph.Grid(12, 12)
	want, clean, err := ConnectedComponents(g, Config{CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	epochs := clean.Stats.NumSupersteps()
	got, res, err := ConnectedComponents(g, Config{CheckpointEvery: 5, Faults: rt.PlanOf(rt.Crash(epochs))})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("labels after a crash at final barrier %d differ from the clean run's", epochs)
	}
	if res.Updates != clean.Updates {
		t.Fatalf("updates %d after a crash at final barrier %d, clean run %d", res.Updates, epochs, clean.Updates)
	}
	if r := res.Stats.Recovery; r.Rollbacks != 1 {
		t.Fatalf("crash at final barrier %d: rollbacks %d, want 1", epochs, r.Rollbacks)
	}
}

func TestAsyncPageRankMatchesPowerIteration(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.PreferentialAttachment(500, 3, 4),
		graph.RandomDirected(300, 1200, 6),
	} {
		ranks, prRes, err := PageRank(g, 0.85, 1e-12, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var ops seq.Ops
		want := seq.PageRank(g, 0.85, 300, &ops)
		for v := range want {
			if math.Abs(ranks[v]-want[v]) > 1e-7 {
				t.Fatalf("vertex %d: async=%v seq=%v", v, ranks[v], want[v])
			}
		}
		if prRes.Updates == 0 {
			t.Fatal("no updates recorded")
		}
	}
}

func TestAsyncPageRankUpdateCountComparableToSync(t *testing.T) {
	// With a plain FIFO scheduler, Gauss–Seidel PageRank does about the
	// same number of vertex updates as synchronous power iteration (the
	// async model's big wins need residual-prioritized scheduling, or
	// show up on propagation problems like CC/SSSP — see
	// TestAsyncPropagatesWithinOneDrain). Pin the "comparable" claim.
	g := graph.PreferentialAttachment(2000, 3, 8)
	_, prRes2, err := PageRank(g, 0.85, 1e-9, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, iters, err2 := vc.PageRankConverge(g, 0.85, 1e-9, vc.Config{Workers: 2})
	if err2 != nil {
		t.Fatal(err2)
	}
	syncWork := iters * g.N()
	if updates := prRes2.Updates; updates > 2*syncWork || updates*4 < syncWork {
		t.Fatalf("async updates %d implausibly far from sync %d", updates, syncWork)
	}
}
