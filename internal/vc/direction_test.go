package vc

import (
	"testing"

	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	"vcgraph/internal/runtime"
)

// Direction-optimizing execution equivalence: push, pull, and auto are
// three schedules of the SAME computation. The pull gather replays
// push's fold order exactly (per-source ascending within each owner
// worker, owners folded in worker order), so even float64 sums like
// PageRank's must come out bit-identical — not merely close. Mode may
// only change the wire-level accounting (Sent/Recv/TotalMessages and
// the Pulled marker): verdict-bearing outputs, superstep counts, and
// the per-superstep Work/Active loads must be byte-identical.

var directionModes = []struct {
	name string
	mode runtime.DirectionMode
}{
	{"push", runtime.DirectionPush},
	{"pull", runtime.DirectionPull},
	{"auto", runtime.DirectionAuto},
}

var directionCells = []struct {
	name    string
	workers int
	part    pregel.Partitioner
}{
	{"w1-hash", 1, pregel.PartitionHash},
	{"w2-range", 2, pregel.PartitionRange},
	{"w8-hash", 8, pregel.PartitionHash},
	{"w8-range", 8, pregel.PartitionRange},
}

// requireSameLoads asserts the per-superstep compute-side stats are
// identical: Work and Active per worker, superstep for superstep. Only
// the communication columns (Sent/Recv) may differ across modes.
func requireSameLoads(t *testing.T, base, got *bsp.Stats) {
	t.Helper()
	if len(base.Supersteps) != len(got.Supersteps) {
		t.Fatalf("superstep counts differ: %d vs %d", len(base.Supersteps), len(got.Supersteps))
	}
	for s := range base.Supersteps {
		b, g := base.Supersteps[s], got.Supersteps[s]
		for w := range b.Work {
			if b.Work[w] != g.Work[w] {
				t.Fatalf("superstep %d worker %d: work %d vs %d", s, w, b.Work[w], g.Work[w])
			}
			if b.Active[w] != g.Active[w] {
				t.Fatalf("superstep %d worker %d: active %d vs %d", s, w, b.Active[w], g.Active[w])
			}
		}
	}
	if base.TotalWork != got.TotalWork {
		t.Fatalf("total work differs: %d vs %d", base.TotalWork, got.TotalWork)
	}
}

func TestDirectionEquivalencePageRank(t *testing.T) {
	g := graph.PreferentialAttachment(800, 3, 5)
	for _, tc := range directionCells {
		t.Run(tc.name, func(t *testing.T) {
			var base *PageRankResult
			for _, dm := range directionModes {
				res, err := PageRank(g, 0.85, 20, Config{Workers: tc.workers, Partition: tc.part, Mode: dm.mode})
				if err != nil {
					t.Fatal(err)
				}
				if dm.mode == runtime.DirectionPull && res.Stats.PulledSupersteps() == 0 {
					t.Fatal("forced pull never pulled")
				}
				if base == nil {
					base = res
					continue
				}
				for v := range base.Ranks {
					// Bit-identical, not epsilon: the gather replays the
					// push fold order.
					if base.Ranks[v] != res.Ranks[v] {
						t.Fatalf("mode %s: rank differs at vertex %d: %v vs %v",
							dm.name, v, base.Ranks[v], res.Ranks[v])
					}
				}
				requireSameLoads(t, base.Stats, res.Stats)
			}
		})
	}
}

func TestDirectionEquivalenceHashMin(t *testing.T) {
	g := graph.WattsStrogatz(500, 2, 0.1, 9)
	for _, tc := range directionCells {
		t.Run(tc.name, func(t *testing.T) {
			var base *CCResult
			for _, dm := range directionModes {
				res, err := HashMinCC(g, Config{Workers: tc.workers, Partition: tc.part, Mode: dm.mode})
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = res
					continue
				}
				for v := range base.Color {
					if base.Color[v] != res.Color[v] {
						t.Fatalf("mode %s: label differs at vertex %d", dm.name, v)
					}
				}
				requireSameLoads(t, base.Stats, res.Stats)
			}
		})
	}
}

func TestDirectionEquivalenceDoubleSweep(t *testing.T) {
	g := graph.RandomConnected(400, 1200, 11)
	for _, tc := range directionCells {
		t.Run(tc.name, func(t *testing.T) {
			var base *DoubleSweepResult
			for _, dm := range directionModes {
				res, err := DoubleSweepDiameter(g, graph.NoVertex, Config{Workers: tc.workers, Partition: tc.part, Mode: dm.mode})
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = res
					continue
				}
				if base.LowerBound != res.LowerBound || base.From != res.From || base.To != res.To {
					t.Fatalf("mode %s: witness differs: %d..%d (%d) vs %d..%d (%d)",
						dm.name, base.From, base.To, base.LowerBound, res.From, res.To, res.LowerBound)
				}
				requireSameLoads(t, base.Stats, res.Stats)
			}
		})
	}
}

// TestDirectionEquivalenceUnderFaults crashes the run mid-pull and
// requires recovery to replay the identical computation: the worklist
// is rebuilt from the restored mailbox, so the replayed superstep
// re-picks the same direction deterministically.
func TestDirectionEquivalenceUnderFaults(t *testing.T) {
	g := graph.PreferentialAttachment(600, 3, 7)
	clean, err := PageRank(g, 0.85, 20, Config{Workers: 4, Mode: runtime.DirectionPush})
	if err != nil {
		t.Fatal(err)
	}
	for _, dm := range directionModes {
		t.Run(dm.name, func(t *testing.T) {
			res, err := PageRank(g, 0.85, 20, Config{
				Workers:         4,
				Mode:            dm.mode,
				CheckpointEvery: 2,
				Faults:          runtime.PlanOf(runtime.Crash(5)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Recovery.Rollbacks == 0 {
				t.Fatal("crash plan did not trigger a rollback")
			}
			for v := range clean.Ranks {
				if clean.Ranks[v] != res.Ranks[v] {
					t.Fatalf("recovered %s run differs at vertex %d: %v vs %v",
						dm.name, v, clean.Ranks[v], res.Ranks[v])
				}
			}
		})
	}
}

// TestDirectionPushPinsWithoutCombiner: forcing pull on an algorithm
// without a combiner must be a silent no-op (every superstep pushes),
// not an error or a semantic change — k-core's messages are per-edge
// estimate transitions and cannot be combined.
func TestDirectionPushPinsWithoutCombiner(t *testing.T) {
	g := graph.PreferentialAttachment(400, 3, 13)
	base, err := KCore(g, Config{Workers: 4, Mode: runtime.DirectionPush})
	if err != nil {
		t.Fatal(err)
	}
	forced, err := KCore(g, Config{Workers: 4, Mode: runtime.DirectionPull})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Stats.PulledSupersteps() != 0 {
		t.Fatalf("combiner-less run pulled %d supersteps", forced.Stats.PulledSupersteps())
	}
	if base.Degeneracy != forced.Degeneracy {
		t.Fatalf("degeneracy differs: %d vs %d", base.Degeneracy, forced.Degeneracy)
	}
	if base.Stats.TotalMessages != forced.Stats.TotalMessages {
		t.Fatalf("message counts differ: %d vs %d", base.Stats.TotalMessages, forced.Stats.TotalMessages)
	}
}

// TestDirectionPullWireIsZero pins the wire account of a dense frontier:
// on a degree-32 power-law graph every PageRank and Hash-Min superstep
// is dense, so forced pull and auto gather every one of them over the
// transpose and put nothing on the wire (0 messages, Σh = 0), while
// push pays for every edge. What the receivers see — one inbox
// placement per receiving vertex per superstep — is the same in all
// three modes. None of this depends on graph size.
func TestDirectionPullWireIsZero(t *testing.T) {
	g := graph.PreferentialAttachment(2000, 32, 5)
	for _, algo := range []struct {
		name string
		run  func(cfg Config) (*bsp.Stats, error)
	}{
		{"pagerank", func(cfg Config) (*bsp.Stats, error) {
			res, err := PageRank(g, 0.85, 10, cfg)
			if err != nil {
				return nil, err
			}
			return res.Stats, nil
		}},
		{"hashmin", func(cfg Config) (*bsp.Stats, error) {
			res, err := HashMinCC(g, cfg)
			if err != nil {
				return nil, err
			}
			return res.Stats, nil
		}},
	} {
		t.Run(algo.name, func(t *testing.T) {
			var push *bsp.Stats
			for _, dm := range directionModes {
				st, err := algo.run(Config{Workers: 8, Mode: dm.mode})
				if err != nil {
					t.Fatal(err)
				}
				var sumH int64
				for _, ss := range st.Supersteps {
					sumH += ss.H()
				}
				t.Logf("%-4s messages=%d Σh=%d inbox=%d pulled=%d/%d", dm.name,
					st.TotalMessages, sumH, st.InboxDeliveries, st.PulledSupersteps(), st.NumSupersteps())
				if dm.mode == runtime.DirectionPush {
					if st.TotalMessages == 0 || sumH == 0 {
						t.Fatalf("push put nothing on the wire")
					}
					push = st
					continue
				}
				if st.TotalMessages != 0 || sumH != 0 {
					t.Errorf("%s: wire messages=%d Σh=%d, want 0", dm.name, st.TotalMessages, sumH)
				}
				if st.PulledSupersteps() != st.NumSupersteps() {
					t.Errorf("%s: pulled %d of %d dense supersteps", dm.name, st.PulledSupersteps(), st.NumSupersteps())
				}
				if st.InboxDeliveries != push.InboxDeliveries {
					t.Errorf("%s: inbox deliveries %d, push %d", dm.name, st.InboxDeliveries, push.InboxDeliveries)
				}
			}
		})
	}
}

// TestDirectionEquivalenceGas: the GAS engine's pull-scatter activates
// next-round vertices by scanning transpose spans for changed sources
// instead of materializing wake batches. The activation SET is
// identical (v ∈ ∪Out(changed) ⟺ ∃u ∈ In(v) changed), so ranks,
// iteration counts, and per-iteration loads must all match.
func TestDirectionEquivalenceGas(t *testing.T) {
	g := graph.PreferentialAttachment(2000, 3, 17)
	var baseRanks []float64
	var baseStats *bsp.Stats
	for _, dm := range directionModes {
		ranks, res, err := gas.PageRank(g, 0.85, 1e-9, gas.Config{Workers: 4, Mode: dm.mode})
		if err != nil {
			t.Fatal(err)
		}
		if dm.mode == runtime.DirectionPull && res.Stats.PulledSupersteps() == 0 {
			t.Fatal("forced pull never pulled")
		}
		if baseRanks == nil {
			baseRanks, baseStats = ranks, res.Stats
			continue
		}
		for v := range baseRanks {
			if baseRanks[v] != ranks[v] {
				t.Fatalf("mode %s: gas rank differs at vertex %d", dm.name, v)
			}
		}
		requireSameLoads(t, baseStats, res.Stats)
	}
}

// TestDirectionEquivalenceBlockcentric: block-local pull is opt-in
// (DirectionPull) and reroutes intra-block messages around the boundary
// exchange. Exact-fold algorithms (min label, min distance) must be
// byte-identical; superstep counts never change; and the pull run's
// wire volume must shrink to boundary traffic only.
func TestDirectionEquivalenceBlockcentric(t *testing.T) {
	g := graph.WattsStrogatz(600, 2, 0.05, 19)
	t.Run("cc", func(t *testing.T) {
		push, err := blockcentric.ConnectedComponents(g, blockcentric.Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		pull, err := blockcentric.ConnectedComponents(g, blockcentric.Config{Workers: 4, Mode: runtime.DirectionPull})
		if err != nil {
			t.Fatal(err)
		}
		for v := range push.Color {
			if push.Color[v] != pull.Color[v] {
				t.Fatalf("label differs at vertex %d", v)
			}
		}
		if a, b := push.Stats.NumSupersteps(), pull.Stats.NumSupersteps(); a != b {
			t.Fatalf("supersteps differ: %d vs %d", a, b)
		}
		// The CC block program already sends over boundary edges only,
		// so rerouting local traffic is a no-op on its wire volume —
		// it must stay exactly equal, not shrink.
		if pull.Stats.TotalMessages != push.Stats.TotalMessages {
			t.Fatalf("wire volume differs on a boundary-only program: %d vs %d",
				pull.Stats.TotalMessages, push.Stats.TotalMessages)
		}
		if pull.Stats.PulledSupersteps() != pull.Stats.NumSupersteps() {
			t.Fatalf("pull run marked %d/%d supersteps pulled",
				pull.Stats.PulledSupersteps(), pull.Stats.NumSupersteps())
		}
	})
	t.Run("sssp", func(t *testing.T) {
		graph.RandomWeights(g, 23)
		push, err := blockcentric.SSSP(g, 0, blockcentric.Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		pull, err := blockcentric.SSSP(g, 0, blockcentric.Config{Workers: 4, Mode: runtime.DirectionPull})
		if err != nil {
			t.Fatal(err)
		}
		for v := range push.Dist {
			if push.Dist[v] != pull.Dist[v] {
				t.Fatalf("distance differs at vertex %d", v)
			}
		}
		if a, b := push.Stats.NumSupersteps(), pull.Stats.NumSupersteps(); a != b {
			t.Fatalf("supersteps differ: %d vs %d", a, b)
		}
	})
	t.Run("pagerank", func(t *testing.T) {
		// PageRank's sum folds local contributions before boundary ones
		// under pull (push interleaves them by source block), so ranks
		// are equal up to float regrouping, not bitwise.
		push, err := blockcentric.PageRank(g, 0.85, 10, blockcentric.Config{Workers: 4, Mode: runtime.DirectionPush})
		if err != nil {
			t.Fatal(err)
		}
		pull, err := blockcentric.PageRank(g, 0.85, 10, blockcentric.Config{Workers: 4, Mode: runtime.DirectionPull})
		if err != nil {
			t.Fatal(err)
		}
		for v := range push.Ranks {
			if d := push.Ranks[v] - pull.Ranks[v]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("rank differs at vertex %d beyond rounding: %v vs %v", v, push.Ranks[v], pull.Ranks[v])
			}
		}
		if a, b := push.Stats.NumSupersteps(), pull.Stats.NumSupersteps(); a != b {
			t.Fatalf("supersteps differ: %d vs %d", a, b)
		}
		// PageRank messages every neighbor, so with range-partitioned
		// contiguous blocks most traffic is intra-block: this is where
		// local rerouting must actually shrink the wire volume.
		if pull.Stats.TotalMessages >= push.Stats.TotalMessages {
			t.Fatalf("block-local pull did not reduce wire volume: %d vs %d",
				pull.Stats.TotalMessages, push.Stats.TotalMessages)
		}
	})
	t.Run("cc-faults", func(t *testing.T) {
		// A crash mid-run under block-local pull must recover to the
		// same labels: inboxLocal is checkpointed with the inboxes, so
		// the restored barrier state replays identically.
		clean, err := blockcentric.ConnectedComponents(g, blockcentric.Config{Workers: 4, Mode: runtime.DirectionPull})
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := blockcentric.ConnectedComponents(g, blockcentric.Config{
			Workers: 4, Mode: runtime.DirectionPull,
			CheckpointEvery: 2, Faults: runtime.PlanOf(runtime.Crash(3)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if faulty.Stats.Recovery.Rollbacks == 0 {
			t.Fatal("crash plan did not trigger a rollback")
		}
		for v := range clean.Color {
			if clean.Color[v] != faulty.Color[v] {
				t.Fatalf("recovered label differs at vertex %d", v)
			}
		}
	})
}

// TestDirectionModeParseErrors pins the CLI-facing parser.
func TestDirectionModeParseErrors(t *testing.T) {
	if _, err := runtime.ParseDirectionMode("sideways"); err == nil {
		t.Fatal("expected an error for an unknown mode")
	}
	m, err := runtime.ParseDirectionMode("")
	if err != nil || m != runtime.DirectionAuto {
		t.Fatalf("empty mode: got %v, %v", m, err)
	}
}
