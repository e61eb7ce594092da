package vc

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vcgraph/internal/async"
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
)

// asyncCC is the async engine's from-scratch labels in the matrix's
// float64 shape.
func asyncCC(t *testing.T, g *graph.Graph) []float64 {
	t.Helper()
	labels, _, err := async.ConnectedComponents(g, async.Config{})
	if err != nil {
		t.Fatalf("async CC: %v", err)
	}
	return floats(labels)
}

// asyncSSSP is the async engine's from-scratch distances in the
// matrix's shape: an unreachable vertex is +Inf.
func asyncSSSP(t *testing.T, g *graph.Graph, src VertexID) []float64 {
	t.Helper()
	dist, _, err := async.SSSP(g, src, async.Config{})
	if err != nil {
		t.Fatalf("async SSSP: %v", err)
	}
	return dist
}

// incRow runs algo's inc row on g under cfg, resuming from *p and
// leaving there the Prior the next run resumes from (nil runs cold and
// keeps nothing).
func incRow(g *graph.Graph, algo string, a Args, p *Prior, cfg Config) ([]float64, *bsp.Stats, error) {
	return Matrix[Key{algo, EngineInc}](g, a, Env{Config: cfg, Prior: p})()
}

func mustMutate(t *testing.T, g *graph.Graph, muts ...graph.Mutation) {
	t.Helper()
	if _, err := g.ApplyMutations(muts); err != nil {
		t.Fatalf("ApplyMutations: %v", err)
	}
}

func ins(u, v VertexID, w float64) graph.Mutation {
	return graph.Mutation{Op: graph.InsertEdge, U: u, V: v, W: w}
}

func del(u, v VertexID) graph.Mutation {
	return graph.Mutation{Op: graph.DeleteEdge, U: u, V: v}
}

// TestIncrementalCCInsertDelete exercises the two structural directions:
// an insert merging two components, and the delete splitting them again
// (the case hash-min alone cannot repair — labels must be re-seeded).
func TestIncrementalCCInsertDelete(t *testing.T) {
	g := graph.New(6, false)
	for _, e := range [][2]VertexID{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		g.AddEdge(e[0], e[1])
	}
	var st Prior
	labels, _, err := incRow(g, "cc", Args{}, &st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cold {
		t.Fatal("first run with no prior state should be cold")
	}
	if got := asyncCC(t, g); !reflect.DeepEqual(labels, got) {
		t.Fatalf("cold labels %v != from-scratch %v", labels, got)
	}

	mustMutate(t, g, ins(2, 3, 1))
	labels, _, err = incRow(g, "cc", Args{}, &st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cold {
		t.Fatal("run with valid prior state should be warm")
	}
	if got := asyncCC(t, g); !reflect.DeepEqual(labels, got) {
		t.Fatalf("after insert: incremental %v != from-scratch %v", labels, got)
	}

	mustMutate(t, g, del(2, 3))
	labels, _, err = incRow(g, "cc", Args{}, &st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cold {
		t.Fatal("expected warm run after delete")
	}
	if got := asyncCC(t, g); !reflect.DeepEqual(labels, got) {
		t.Fatalf("after delete: incremental %v != from-scratch %v", labels, got)
	}
	if labels[3] != 3 || labels[0] != 0 {
		t.Fatalf("split not repaired: %v", labels)
	}
}

// TestIncrementalCCOutOfBandMutation: a mutation outside ApplyMutations
// poisons the log, so the next incremental run must detect the missing
// history and fall back to a cold recompute — and still be right.
func TestIncrementalCCOutOfBandMutation(t *testing.T) {
	g := graph.RandomConnected(16, 24, 5)
	var st Prior
	if _, _, err := incRow(g, "cc", Args{}, &st, Config{}); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 9) // bypasses the mutation log
	labels, _, err := incRow(g, "cc", Args{}, &st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cold {
		t.Fatal("out-of-band mutation must force a cold run")
	}
	if got := asyncCC(t, g); !reflect.DeepEqual(labels, got) {
		t.Fatalf("cold fallback labels %v != from-scratch %v", labels, got)
	}
}

// TestIncrementalSSSPDeleteLengthens covers the hard direction for a
// label-correcting algorithm: deletions that lengthen distances and
// disconnect vertices, which only work via the invalidation closure.
func TestIncrementalSSSPDeleteLengthens(t *testing.T) {
	g := graph.New(4, false)
	g.AddWeightedEdge(0, 1, 1)
	g.AddWeightedEdge(1, 2, 1)
	g.AddWeightedEdge(0, 2, 1) // shortcut: dist[2] = 1
	g.AddWeightedEdge(2, 3, 1)
	var st Prior
	dist, _, err := incRow(g, "sssp", Args{Src: 0}, &st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 1, 1, 2}; !reflect.DeepEqual(dist, want) {
		t.Fatalf("cold dist %v, want %v", dist, want)
	}

	// Deleting the shortcut lengthens 2 and 3.
	mustMutate(t, g, del(0, 2))
	dist, _, err = incRow(g, "sssp", Args{Src: 0}, &st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cold {
		t.Fatal("expected warm run")
	}
	if want := []float64{0, 1, 2, 3}; !reflect.DeepEqual(dist, want) {
		t.Fatalf("after shortcut delete: %v, want %v", dist, want)
	}
	if got := asyncSSSP(t, g, 0); !reflect.DeepEqual(dist, got) {
		t.Fatalf("incremental %v != from-scratch %v", dist, got)
	}

	// Disconnect vertex 3 entirely: its distance must match the async
	// engine's unreachable distance bit-for-bit.
	mustMutate(t, g, del(2, 3))
	dist, _, err = incRow(g, "sssp", Args{Src: 0}, &st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dist[3] != math.Inf(1) {
		t.Fatalf("disconnected vertex dist = %v, want +Inf", dist[3])
	}
	if got := asyncSSSP(t, g, 0); !reflect.DeepEqual(dist, got) {
		t.Fatalf("incremental %v != from-scratch %v", dist, got)
	}

	// Reconnect cheaper than ever.
	mustMutate(t, g, ins(0, 3, 0.5))
	dist, _, err = incRow(g, "sssp", Args{Src: 0}, &st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := asyncSSSP(t, g, 0); !reflect.DeepEqual(dist, got) {
		t.Fatalf("incremental %v != from-scratch %v", dist, got)
	}
	if dist[3] != 0.5 {
		t.Fatalf("dist[3] = %v, want 0.5", dist[3])
	}
}

// TestIncrementalSSSPSourceChange: prior state for a different source
// must not be reused.
func TestIncrementalSSSPSourceChange(t *testing.T) {
	g := graph.RandomConnected(12, 20, 7)
	graph.RandomWeights(g, 7)
	var st Prior
	if _, _, err := incRow(g, "sssp", Args{Src: 0}, &st, Config{}); err != nil {
		t.Fatal(err)
	}
	dist, _, err := incRow(g, "sssp", Args{Src: 3}, &st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cold {
		t.Fatal("prior state for source 0 reused for source 3")
	}
	if got := asyncSSSP(t, g, 3); !reflect.DeepEqual(dist, got) {
		t.Fatalf("incremental %v != from-scratch %v", dist, got)
	}
}

// TestIncrementalDirectedRejected: the worklist update rules for CC and
// SSSP pull over out-spans, which is only the full neighborhood on
// undirected graphs.
func TestIncrementalDirectedRejected(t *testing.T) {
	g := graph.New(3, true)
	g.AddEdge(0, 1)
	if _, _, err := incRow(g, "cc", Args{}, nil, Config{}); !errors.Is(err, async.ErrDirected) {
		t.Fatalf("CC on directed graph: err = %v", err)
	}
	if _, _, err := incRow(g, "sssp", Args{Src: 0}, nil, Config{}); !errors.Is(err, async.ErrDirected) {
		t.Fatalf("SSSP on directed graph: err = %v", err)
	}
}

// TestIncrementalWorkSavings: on a larger graph with a small delta, the
// warm CC/SSSP runs must update far fewer vertices than cold runs.
func TestIncrementalWorkSavings(t *testing.T) {
	g := graph.RandomConnected(400, 1200, 17)
	graph.RandomWeights(g, 17)
	var cc, ss Prior
	_, ccCold, err := incRow(g, "cc", Args{}, &cc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, ssCold, err := incRow(g, "sssp", Args{Src: 0}, &ss, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustMutate(t, g, ins(5, 300, 2))
	labels, ccWarm, err := incRow(g, "cc", Args{}, &cc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dist, ssWarm, err := incRow(g, "sssp", Args{Src: 0}, &ss, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cc.Cold || ss.Cold {
		t.Fatal("expected warm runs")
	}
	if got := asyncCC(t, g); !reflect.DeepEqual(labels, got) {
		t.Fatal("warm CC wrong")
	}
	if got := asyncSSSP(t, g, 0); !reflect.DeepEqual(dist, got) {
		t.Fatal("warm SSSP wrong")
	}
	if w, c := ccWarm.TotalWork, ccCold.TotalWork; w*4 >= c {
		t.Errorf("warm CC did %d updates vs cold %d: expected <25%%", w, c)
	}
	if w, c := ssWarm.TotalWork, ssCold.TotalWork; w*4 >= c {
		t.Errorf("warm SSSP did %d updates vs cold %d: expected <25%%", w, c)
	}
}

// incRound is one warm repair after a seeded mutation batch, beside the
// work of the cold run on the unmutated graph.
type incRound struct {
	deleted    bool // the batch held at least one delete
	cold, warm int64
}

// incWorkRounds runs the workload the incremental headlines are quoted
// on: PreferentialAttachment(30000, 3, 7) with seeded weights, one cold
// run, then five seeded batches of k mutations (55/45 insert/delete, or
// insert-only), each followed by a warm repair. A live-edge list keeps
// every delete on an existing edge.
func incWorkRounds(t *testing.T, algo string, k int, insertOnly bool) []incRound {
	t.Helper()
	g := graph.PreferentialAttachment(30000, 3, 7)
	graph.RandomWeights(g, 8)
	var live [][2]VertexID
	c := g.Pin()
	for u := 0; u < g.N(); u++ {
		c.ForEachOut(VertexID(u), func(v VertexID, _ float64) {
			if VertexID(u) <= v {
				live = append(live, [2]VertexID{VertexID(u), v})
			}
		})
	}
	g.Unpin(c)
	var prior Prior
	repair := func() int64 {
		_, st, err := incRow(g, algo, Args{Src: 0}, &prior, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return st.TotalWork
	}
	cold := repair()
	rng := rand.New(rand.NewSource(42))
	rounds := make([]incRound, 5)
	for i := range rounds {
		muts := make([]graph.Mutation, 0, k)
		for j := 0; j < k; j++ {
			if insertOnly || rng.Intn(100) < 55 || len(live) == 0 {
				u := VertexID(rng.Intn(g.N()))
				v := VertexID(rng.Intn(g.N()))
				if u == v {
					v = (v + 1) % VertexID(g.N())
				}
				muts = append(muts, ins(u, v, 0.5+3*rng.Float64()))
				live = append(live, [2]VertexID{u, v})
			} else {
				d := rng.Intn(len(live))
				muts = append(muts, graph.Mutation{Op: graph.DeleteEdge, U: live[d][0], V: live[d][1]})
				live = append(live[:d], live[d+1:]...)
				rounds[i].deleted = true
			}
		}
		mustMutate(t, g, muts...)
		rounds[i].cold, rounds[i].warm = cold, repair()
		if prior.Cold {
			t.Fatalf("batch %d: warm repair fell back to a cold run", i)
		}
	}
	return rounds
}

// TestIncrementalWorkRatio pins the incremental headlines as counted
// work: warm repair after each of the first five batches must do at
// least 5x fewer vertex updates than the cold run. SSSP repairs only the
// invalidation closure of its deletes plus the insert endpoints; an
// insert-only CC batch touches just the merge frontier.
func TestIncrementalWorkRatio(t *testing.T) {
	for _, tc := range []struct {
		name       string
		algo       string
		k          int
		insertOnly bool
	}{
		{"sssp-batch4", "sssp", 4, false},
		{"sssp-batch64", "sssp", 64, false},
		{"cc-insert4", "cc", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, r := range incWorkRounds(t, tc.algo, tc.k, tc.insertOnly) {
				ratio := float64(r.cold) / float64(r.warm)
				t.Logf("batch %d: cold %d, warm %d, %.0fx", i, r.cold, r.warm, ratio)
				if ratio < 5 {
					t.Errorf("batch %d: cold/warm work %.2fx, want >= 5x", i, ratio)
				}
			}
		})
	}
}

// TestIncrementalCCDeleteRedoesColdWork pins what a mixed CC batch
// costs: a delete resets the whole prior label classes of both
// endpoints, which on this connected graph is every vertex, so the warm
// drain does at least as many updates as the cold run. Whatever makes a
// mixed warm repair faster in wall-clock is not in the counted work.
func TestIncrementalCCDeleteRedoesColdWork(t *testing.T) {
	for _, k := range []int{4, 64} {
		deletes := 0
		for i, r := range incWorkRounds(t, "cc", k, false) {
			t.Logf("batch%d #%d: deleted=%v cold %d, warm %d", k, i, r.deleted, r.cold, r.warm)
			if !r.deleted {
				continue
			}
			deletes++
			if float64(r.warm) < 0.99*float64(r.cold) {
				t.Errorf("batch%d #%d: warm work %d below 0.99x cold %d", k, i, r.warm, r.cold)
			}
		}
		if deletes == 0 {
			t.Errorf("batch%d: no batch held a delete", k)
		}
	}
}
