package pregel

import (
	"strings"
	"testing"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

func checkPartition(t *testing.T, owner []int32, workers, n int) {
	t.Helper()
	if len(owner) != n {
		t.Fatalf("owner covers %d of %d vertices", len(owner), n)
	}
	counts := make([]int, workers)
	for v, w := range owner {
		if w < 0 || int(w) >= workers {
			t.Fatalf("vertex %d assigned to worker %d of %d", v, w, workers)
		}
		counts[w]++
	}
	for w, c := range counts {
		if n >= workers && c == 0 {
			t.Fatalf("worker %d owns no vertices (counts %v)", w, counts)
		}
	}
}

func TestPartitionersCoverAllWorkers(t *testing.T) {
	g := graph.PreferentialAttachment(500, 3, 3)
	for name, p := range map[string]Partitioner{
		"hash":   PartitionHash,
		"range":  PartitionRange,
		"degree": PartitionDegreeBalanced,
	} {
		for _, workers := range []int{1, 2, 4, 7} {
			owner := p(g, workers)
			checkPartition(t, owner, workers, g.N())
			_ = name
		}
	}
}

func TestPartitionRangeIsContiguous(t *testing.T) {
	g := graph.Path(100)
	owner := PartitionRange(g, 4)
	for v := 1; v < len(owner); v++ {
		if owner[v] < owner[v-1] {
			t.Fatalf("range partition not monotone at %d: %d after %d", v, owner[v], owner[v-1])
		}
	}
}

func TestPartitionDegreeBalancedBalancesLoad(t *testing.T) {
	g := graph.PreferentialAttachment(2000, 3, 5)
	const workers = 4
	loadOf := func(owner []int32) (min, max int64) {
		load := make([]int64, workers)
		for v := range owner {
			load[owner[v]] += int64(g.Degree(graph.VertexID(v)) + 1)
		}
		min, max = load[0], load[0]
		for _, l := range load[1:] {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		return min, max
	}
	_, maxBal := loadOf(PartitionDegreeBalanced(g, workers))
	minRange, maxRange := loadOf(PartitionRange(g, workers))
	_ = minRange
	// On a PA graph, the hubs sit at low IDs: range partitioning piles
	// them onto worker 0; the greedy balancer must do much better.
	if maxBal >= maxRange {
		t.Fatalf("degree-balanced max load %d not better than range %d", maxBal, maxRange)
	}
}

func TestResultsInvariantUnderPartitioning(t *testing.T) {
	g := graph.PreferentialAttachment(400, 3, 9)
	run := func(p Partitioner) []int {
		prog := &echoProgram{rounds: 3}
		eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 4, Partition: p}})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	}
	hash := run(PartitionHash)
	rng := run(PartitionRange)
	deg := run(PartitionDegreeBalanced)
	for v := range hash {
		if hash[v] != rng[v] || hash[v] != deg[v] {
			t.Fatalf("vertex %d differs across partitioners: %d %d %d", v, hash[v], rng[v], deg[v])
		}
	}
}

func TestPartitioningChangesLoadBalance(t *testing.T) {
	// Same computation, different max per-worker load: the measured
	// superstep cost max(w, gh, L) must reflect the partitioner.
	g := graph.PreferentialAttachment(3000, 3, 11)
	run := func(p Partitioner) float64 {
		prog := &echoProgram{rounds: 4}
		eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 4, Partition: p}})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		var cost float64
		for _, ss := range res.Stats.Supersteps {
			cost += float64(ss.W())
		}
		return cost
	}
	balanced := run(PartitionDegreeBalanced)
	ranged := run(PartitionRange)
	if balanced >= ranged {
		t.Fatalf("degree-balanced cost %v not below range cost %v", balanced, ranged)
	}
}

func TestCustomPartitioner(t *testing.T) {
	g := graph.Path(10)
	all0 := func(g *graph.Graph, workers int) []int32 { return make([]int32, g.N()) }
	prog := &echoProgram{rounds: 2}
	eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 3, Partition: all0}})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// All work lands on worker 0.
	for _, ss := range res.Stats.Supersteps {
		if ss.Work[1] != 0 || ss.Work[2] != 0 {
			t.Fatalf("work leaked to unassigned workers: %v", ss.Work)
		}
	}
}

func TestBadPartitionerFails(t *testing.T) {
	g := graph.Path(4)
	bad := func(g *graph.Graph, workers int) []int32 {
		o := make([]int32, g.N())
		o[0] = int32(workers) // out of range
		return o
	}
	_, err := NewEngine[int, int](g, &echoProgram{}, Config[int]{EngineConfig: rt.EngineConfig{Workers: 2, Partition: bad}}).Run()
	if err == nil || !strings.Contains(err.Error(), "pregel: partitioner assigned vertex 0 to worker 2") {
		t.Fatalf("err = %v, want the out-of-range placement named", err)
	}
	if g.Pins() != 0 {
		t.Fatalf("%d pins held after a failed prepare", g.Pins())
	}
}

func TestInboxDeliveriesStat(t *testing.T) {
	g := graph.Star(50)
	prog := &sendAllToCenter{}
	withComb := Config[int]{EngineConfig: rt.EngineConfig{Workers: 2}, Combiner: func(a, b int) int { return a + b }}
	eng := NewEngine[int, int](g, prog, withComb)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalMessages != 49 {
		t.Fatalf("sent %d", res.Stats.TotalMessages)
	}
	// All 49 raw messages combine: sender-side combining collapses each
	// (src,dst)-worker lane to one entry, and delivery merges the lane
	// partials into a single inbox slot — 1 placement, 49 raw messages.
	if res.Stats.InboxDeliveries != 1 {
		t.Fatalf("combined deliveries %d, want 1", res.Stats.InboxDeliveries)
	}
	eng2 := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 2}})
	res2, err := eng2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.InboxDeliveries != res2.Stats.TotalMessages {
		t.Fatalf("without combiner: %d != %d", res2.Stats.InboxDeliveries, res2.Stats.TotalMessages)
	}
}
