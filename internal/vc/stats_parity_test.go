package vc

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	"vcgraph/internal/runtime"
)

// Cross-engine stats parity: all four engines now price supersteps
// through the shared runtime.Driver, so where the models guarantee
// identical schedules the measured per-superstep accounting must agree
// — across engines for fixed-iteration PageRank, and across worker
// counts within one engine for SSSP.

func parityGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.PreferentialAttachment(600, 3, 7)
	graph.RandomWeights(g, 13)
	return g
}

// perStep extracts one schedule-invariant number per superstep.
func perStep(st *bsp.Stats, f func(bsp.SuperstepStats) int64) []int64 {
	out := make([]int64, len(st.Supersteps))
	for i, ss := range st.Supersteps {
		out[i] = f(ss)
	}
	return out
}

// counts returns a copy of st without what varies between identical
// runs: the wall clock and the heap brackets.
func counts(st *bsp.Stats) *bsp.Stats {
	c := *st
	c.Wall, c.Clock, c.HeapInuseDelta, c.TotalAllocDelta = 0, bsp.Clock{}, 0, 0
	c.Supersteps = stepCounts(st.Supersteps)
	return &c
}

// stepCounts returns a copy of ss with every superstep's clock zeroed.
func stepCounts(ss []bsp.SuperstepStats) []bsp.SuperstepStats {
	out := slices.Clone(ss)
	for i := range out {
		out[i].Clock = bsp.Clock{}
	}
	return out
}

func sumOf(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// TestStatsParityPageRank runs fixed-K PageRank through the two
// synchronous message-passing engines at several worker counts. The
// schedule is fully determined by K: every vertex computes in every one
// of the K+1 supersteps and sends one share per out-edge in the first K,
// regardless of engine or partitioning. Supersteps, per-step active
// vertices, and per-step message totals must agree exactly.
func TestStatsParityPageRank(t *testing.T) {
	g := parityGraph(t)
	n := int64(g.N())
	const k = 8

	runs := map[string]*bsp.Stats{}
	for _, w := range []int{1, 4} {
		// Pin push: under auto, pregel's dense PageRank supersteps pull
		// and stop materializing broadcasts, so the wire-level Sent
		// totals this parity check compares against blockcentric would
		// (correctly) drop to the boundary-only count.
		res, err := PageRank(g, 0.85, k, Config{Workers: w, Mode: runtime.DirectionPush})
		if err != nil {
			t.Fatalf("pregel workers=%d: %v", w, err)
		}
		runs[fmt.Sprintf("pregel/w%d", w)] = res.Stats
	}
	for _, b := range []int{2, 4} {
		// Pin push here too: under auto, blocks whose traffic is mostly
		// intra-block reroute it around the wire, and Sent would
		// (correctly) drop to the boundary-only count.
		res, err := blockcentric.PageRank(g, 0.85, k, blockcentric.Config{Workers: b, Mode: runtime.DirectionPush})
		if err != nil {
			t.Fatalf("blockcentric blocks=%d: %v", b, err)
		}
		runs[fmt.Sprintf("blockcentric/b%d", b)] = res.Stats
	}

	var refSent []int64
	for name, st := range runs {
		if got := st.NumSupersteps(); got != k+1 {
			t.Fatalf("%s: supersteps = %d, want %d", name, got, k+1)
		}
		for i, ss := range st.Supersteps {
			if ss.ActiveVertices() != n {
				t.Errorf("%s: superstep %d active = %d, want %d", name, i, ss.ActiveVertices(), n)
			}
		}
		sent := perStep(st, func(ss bsp.SuperstepStats) int64 { return sumOf(ss.Sent) })
		if refSent == nil {
			refSent = sent
			continue
		}
		for i := range sent {
			if sent[i] != refSent[i] {
				t.Errorf("%s: superstep %d total sent = %d, want %d", name, i, sent[i], refSent[i])
			}
		}
	}
}

// TestStatsParitySSSP checks that within one synchronous engine the
// per-superstep totals are invariant under the worker count: the
// frontier each superstep is a property of the graph, not the
// partitioning, so superstep count, per-step active vertices, per-step
// message totals, and per-step work totals must all match between 1 and
// 4 workers.
func TestStatsParitySSSP(t *testing.T) {
	g := parityGraph(t)

	check := func(t *testing.T, name string, a, b *bsp.Stats) {
		t.Helper()
		if a.NumSupersteps() != b.NumSupersteps() {
			t.Fatalf("%s: supersteps %d vs %d", name, a.NumSupersteps(), b.NumSupersteps())
		}
		for _, dim := range []struct {
			what string
			f    func(bsp.SuperstepStats) int64
		}{
			{"active", func(ss bsp.SuperstepStats) int64 { return ss.ActiveVertices() }},
			{"sent", func(ss bsp.SuperstepStats) int64 { return sumOf(ss.Sent) }},
			{"work", func(ss bsp.SuperstepStats) int64 { return sumOf(ss.Work) }},
		} {
			pa, pb := perStep(a, dim.f), perStep(b, dim.f)
			for i := range pa {
				if pa[i] != pb[i] {
					t.Errorf("%s: superstep %d total %s = %d vs %d", name, i, dim.what, pa[i], pb[i])
				}
			}
		}
	}

	p1, err := SSSP(g, 0, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p4, err := SSSP(g, 0, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "pregel w1 vs w4", p1.Stats, p4.Stats)

	_, g1, err := gas.SSSP(g, 0, gas.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, g4, err := gas.SSSP(g, 0, gas.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "gas w1 vs w4", g1.Stats, g4.Stats)
}

// TestStatsParityPartitioners checks that partitioning is
// results-invisible: for every partitioner in {hash, range,
// degree-balanced} and several worker counts, a synchronous engine must
// produce identical verdicts (output values), identical superstep
// counts, and identical per-superstep active/sent/work totals — the
// schedule is a property of the graph and algorithm, not of vertex
// placement. Only the per-worker balance (MaxWork) may differ, which is
// the whole point of choosing a partitioner.
func TestStatsParityPartitioners(t *testing.T) {
	g := parityGraph(t)

	parts := []struct {
		name string
		p    pregel.Partitioner
	}{
		{"runs", pregel.PartitionRuns},
		{"hash", pregel.PartitionHash},
		{"range", pregel.PartitionRange},
		{"degree", pregel.PartitionDegreeBalanced},
	}

	checkTotals := func(t *testing.T, name string, ref, got *bsp.Stats) {
		t.Helper()
		if ref.NumSupersteps() != got.NumSupersteps() {
			t.Fatalf("%s: supersteps %d, want %d", name, got.NumSupersteps(), ref.NumSupersteps())
		}
		for _, dim := range []struct {
			what string
			f    func(bsp.SuperstepStats) int64
		}{
			{"active", func(ss bsp.SuperstepStats) int64 { return ss.ActiveVertices() }},
			{"sent", func(ss bsp.SuperstepStats) int64 { return sumOf(ss.Sent) }},
			{"work", func(ss bsp.SuperstepStats) int64 { return sumOf(ss.Work) }},
		} {
			pr, pg := perStep(ref, dim.f), perStep(got, dim.f)
			for i := range pr {
				if pg[i] != pr[i] {
					t.Errorf("%s: superstep %d total %s = %d, want %d", name, i, dim.what, pg[i], pr[i])
				}
			}
		}
	}

	t.Run("pregel/sssp", func(t *testing.T) {
		ref, err := SSSP(g, 0, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range parts {
			for _, w := range []int{2, 4} {
				res, err := SSSP(g, 0, Config{Workers: w, Partition: pt.p})
				if err != nil {
					t.Fatalf("%s/w%d: %v", pt.name, w, err)
				}
				name := fmt.Sprintf("%s/w%d", pt.name, w)
				for v := range res.Dist {
					if res.Dist[v] != ref.Dist[v] {
						t.Fatalf("%s: dist[%d] = %v, want %v", name, v, res.Dist[v], ref.Dist[v])
					}
				}
				checkTotals(t, name, ref.Stats, res.Stats)
			}
		}
	})

	t.Run("pregel/hashmin", func(t *testing.T) {
		ref, err := HashMinCC(g, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range parts {
			res, err := HashMinCC(g, Config{Workers: 3, Partition: pt.p})
			if err != nil {
				t.Fatalf("%s: %v", pt.name, err)
			}
			for v := range res.Color {
				if res.Color[v] != ref.Color[v] {
					t.Fatalf("%s: component[%d] = %v, want %v", pt.name, v, res.Color[v], ref.Color[v])
				}
			}
			checkTotals(t, pt.name, ref.Stats, res.Stats)
		}
	})

	t.Run("gas/sssp", func(t *testing.T) {
		refDist, refStats, err := gas.SSSP(g, 0, gas.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range parts {
			for _, w := range []int{2, 4} {
				dist, st, err := gas.SSSP(g, 0, gas.Config{Workers: w, Partition: pt.p})
				if err != nil {
					t.Fatalf("%s/w%d: %v", pt.name, w, err)
				}
				name := fmt.Sprintf("%s/w%d", pt.name, w)
				for v := range dist {
					if dist[v] != refDist[v] {
						t.Fatalf("%s: dist[%d] = %v, want %v", name, v, dist[v], refDist[v])
					}
				}
				checkTotals(t, name, refStats.Stats, st.Stats)
			}
		}
	})
}

// TestPartitionImbalanceSweep pins the load-placement half of the same
// story on the graph EXPERIMENTS.md quotes (pregel PageRank K=10 on
// PreferentialAttachment(20000, 8, 5), 8 workers). Imbalance is the
// mean over supersteps of max per-worker work over mean per-worker
// work: the greedy degree balancer is perfect, the default runs deal
// and hash are near-perfect, and range piles the early hubs of a
// preferential-attachment graph onto one worker — the paper's §3.3
// skew pathology.
func TestPartitionImbalanceSweep(t *testing.T) {
	g := graph.PreferentialAttachment(20000, 8, 5)
	imbalance := func(p pregel.Partitioner) float64 {
		res, err := PageRank(g, 0.85, 10, Config{Workers: 8, Partition: p})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var steps int
		for _, ss := range res.Stats.Supersteps {
			if total := sumOf(ss.Work); total > 0 {
				sum += float64(ss.MaxWork) * float64(res.Stats.Workers) / float64(total)
				steps++
			}
		}
		return sum / float64(steps)
	}
	degree := imbalance(pregel.PartitionDegreeBalanced)
	hash := imbalance(pregel.PartitionHash)
	rng := imbalance(pregel.PartitionRange)
	runs := imbalance(pregel.PartitionRuns)
	t.Logf("imbalance: degree %.4f, hash %.4f, range %.4f, runs %.4f", degree, hash, rng, runs)
	if !(degree <= runs && runs <= hash && hash < rng) {
		t.Errorf("want degree <= runs <= hash < range, got %.4f, %.4f, %.4f, %.4f", degree, runs, hash, rng)
	}
	if degree > 1.01 || rng < 2 {
		t.Errorf("degree-balanced %.4f (want <= 1.01), range %.4f (want >= 2)", degree, rng)
	}
}

// TestDriverMeasuredAccounting checks the driver-populated measured
// fields for every engine: per superstep MaxWork/MaxComm/Cost must equal
// the w, h, and max(w, g·h, L) recomputed from the raw slices, and the
// run's MeasuredTime/MeasuredTPP must equal the model-derived totals
// exactly (superstep costs are integers, so the incremental float64 sum
// is exact).
func TestDriverMeasuredAccounting(t *testing.T) {
	g := parityGraph(t)

	stats := map[string]*bsp.Stats{}
	if res, err := SSSP(g, 0, Config{Workers: 3}); err != nil {
		t.Fatal(err)
	} else {
		stats["pregel/sssp"] = res.Stats
	}
	if res, err := PageRank(g, 0.85, 6, Config{Workers: 3}); err != nil {
		t.Fatal(err)
	} else {
		stats["pregel/pagerank"] = res.Stats
	}
	if _, res, err := gas.SSSP(g, 0, gas.Config{Workers: 2}); err != nil {
		t.Fatal(err)
	} else {
		stats["gas/sssp"] = res.Stats
	}
	if _, res, err := gas.PageRank(g, 0.85, 1e-7, gas.Config{Workers: 2}); err != nil {
		t.Fatal(err)
	} else {
		stats["gas/pagerank"] = res.Stats
	}
	if res, err := blockcentric.SSSP(g, 0, blockcentric.Config{Workers: 3}); err != nil {
		t.Fatal(err)
	} else {
		stats["blockcentric/sssp"] = res.Stats
	}
	if res, err := blockcentric.PageRank(g, 0.85, 6, blockcentric.Config{Workers: 3}); err != nil {
		t.Fatal(err)
	} else {
		stats["blockcentric/pagerank"] = res.Stats
	}
	if _, res, err := async.SSSP(g, 0, async.Config{}); err != nil {
		t.Fatal(err)
	} else {
		stats["async/sssp"] = res.Stats
	}
	if _, res, err := async.PageRank(g, 0.85, 1e-7, async.Config{}); err != nil {
		t.Fatal(err)
	} else {
		stats["async/pagerank"] = res.Stats
	}

	for name, st := range stats {
		if st.NumSupersteps() == 0 {
			t.Fatalf("%s: no supersteps recorded", name)
		}
		for i, ss := range st.Supersteps {
			if ss.MaxWork != ss.W() {
				t.Errorf("%s: superstep %d MaxWork = %d, want %d", name, i, ss.MaxWork, ss.W())
			}
			if ss.MaxComm != ss.H() {
				t.Errorf("%s: superstep %d MaxComm = %d, want %d", name, i, ss.MaxComm, ss.H())
			}
			if want := bsp.DefaultModel.SuperstepTime(ss); ss.Cost != want {
				t.Errorf("%s: superstep %d Cost = %g, want %g", name, i, ss.Cost, want)
			}
		}
		if want := bsp.DefaultModel.Time(st); st.MeasuredTime != want {
			t.Errorf("%s: MeasuredTime = %g, want %g", name, st.MeasuredTime, want)
		}
		if want := bsp.DefaultModel.TimeProcessor(st); st.MeasuredTPP() != want {
			t.Errorf("%s: MeasuredTPP = %g, want %g", name, st.MeasuredTPP(), want)
		}
	}
}

// TestCapSentinelCrossesEngines checks that every engine's cap error
// unwraps to the one shared sentinel, so callers can errors.Is a cap
// regardless of which engine produced it.
func TestCapSentinelCrossesEngines(t *testing.T) {
	g := parityGraph(t)

	_, pregelErr := SSSP(g, 0, Config{MaxSupersteps: 1})
	_, _, gasErr := gas.SSSP(g, 0, gas.Config{MaxSupersteps: 1})
	_, bcErr := blockcentric.SSSP(g, 0, blockcentric.Config{MaxSupersteps: 1})
	_, _, asyncErr := async.SSSP(g, 0, async.Config{MaxSupersteps: 1})

	for name, err := range map[string]error{
		"pregel":       pregelErr,
		"gas":          gasErr,
		"blockcentric": bcErr,
		"async":        asyncErr,
	} {
		if err == nil {
			t.Fatalf("%s: expected a cap error", name)
		}
		if !errors.Is(err, bsp.ErrSuperstepCap) {
			t.Errorf("%s: %v does not unwrap to bsp.ErrSuperstepCap", name, err)
		}
		// The per-engine re-exports alias the same sentinel, so a cap
		// from one engine satisfies errors.Is against another's name.
		if !errors.Is(err, gas.ErrIterationCap) || !errors.Is(err, async.ErrUpdateCap) {
			t.Errorf("%s: %v does not cross-match the engine aliases", name, err)
		}
	}
}
