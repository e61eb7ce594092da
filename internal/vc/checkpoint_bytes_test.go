package vc

import (
	"testing"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// TestDeltaCheckpointBytes pins the compaction headline on the two
// sparse-frontier tails it exists for, at the safest cadence (a
// checkpoint every superstep): dirty-set delta chains with a full frame
// every 16th save must capture at least 5x fewer checkpoint bytes than
// a full snapshot per save. The Recovery byte account is deterministic
// (element sizes times element counts), so the exact ratio is logged
// and EXPERIMENTS.md quotes it.
//
//   - SSSP on a 150x150 grid runs ~300 supersteps, but after the early
//     waves each relaxes only the O(sqrt n) frontier, so a full frame
//     re-copies 22.5k distances to record a few hundred writes.
//   - Hash-Min on stragglerGraph keeps checkpointing the whole graph for
//     one long-diameter component while the converged bulk never dirties
//     again. (Hash-Min on a single grid is the negative control: its
//     label waves keep about half the vertices dirty, so compaction caps
//     near 1.4x.)
func TestDeltaCheckpointBytes(t *testing.T) {
	grid := graph.Grid(150, 150)
	graph.RandomWeights(grid, 7)
	straggler := stragglerGraph(60, 40000)
	for _, tc := range []struct {
		name string
		run  func(cfg Config) (*bsp.Stats, error)
	}{
		{"sssp-grid", func(cfg Config) (*bsp.Stats, error) {
			res, err := SSSP(grid, 0, cfg)
			if err != nil {
				return nil, err
			}
			return res.Stats, nil
		}},
		{"hashmin-straggler", func(cfg Config) (*bsp.Stats, error) {
			res, err := HashMinCC(straggler, cfg)
			if err != nil {
				return nil, err
			}
			return res.Stats, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recovery := func(fullEvery int) bsp.Recovery {
				st, err := tc.run(Config{CheckpointEvery: 1, FullSnapshotEvery: fullEvery})
				if err != nil {
					t.Fatal(err)
				}
				return st.Recovery
			}
			full, delta := recovery(0), recovery(16)
			fullTotal := full.CheckpointBytesFull + full.CheckpointBytesDelta
			deltaTotal := delta.CheckpointBytesFull + delta.CheckpointBytesDelta
			ratio := float64(fullTotal) / float64(deltaTotal)
			t.Logf("all-full %d B, delta chain %d B (%d delta frames): %.2fx",
				fullTotal, deltaTotal, delta.DeltaCheckpointsSaved, ratio)
			if ratio < 5 {
				t.Errorf("delta cadence captured %.2fx fewer checkpoint bytes, want >= 5x", ratio)
			}
		})
	}
}

// TestProgramStateCheckpointBytes: a program whose vertex state lives
// in its own stores must have them charged to its checkpoint frames.
// Dense and packed Hash-Min checkpoint identical engine state, except
// that a dense frame carries the label values and a packed frame the
// label store in their place.
func TestProgramStateCheckpointBytes(t *testing.T) {
	g := graph.Grid(30, 30)
	n := g.N()
	recovery := func(packed bool) bsp.Recovery {
		res, err := HashMinCC(g, Config{Workers: 3, CheckpointEvery: 1, PackedState: packed})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Recovery
	}
	dense, packed := recovery(false), recovery(true)
	frames := int64(packed.CheckpointsSaved)
	if frames == 0 || dense.CheckpointsSaved != packed.CheckpointsSaved {
		t.Fatalf("saved %d dense and %d packed frames", dense.CheckpointsSaved, packed.CheckpointsSaved)
	}
	store := int64(NewPackedInts(n, uint64(n)).SizeBytes())
	values := int64(n) * rt.SizeOf[hashMinValue]()
	if got, want := packed.CheckpointBytesFull-dense.CheckpointBytesFull, frames*(store-values); got != want {
		t.Errorf("packed frames charged %d B more than dense, want %d (%d frames × (%d B store − %d B values))",
			got, want, frames, store, values)
	}
}

// stragglerGraph builds one side x side grid component — the
// long-diameter straggler that keeps the run alive — plus two-vertex
// components filling the ID space to n. Hash-Min settles the pairs by
// superstep 2, after which only the straggler's shrinking label
// boundary dirties, but a full snapshot still re-copies all n labels
// every superstep.
func stragglerGraph(side, n int) *graph.Graph {
	g := graph.New(n, false)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			id := graph.VertexID(r*side + c)
			if c+1 < side {
				g.AddEdge(id, id+1)
			}
			if r+1 < side {
				g.AddEdge(id, id+graph.VertexID(side))
			}
		}
	}
	for v := side * side; v+1 < n; v += 2 {
		g.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
	}
	return g
}
