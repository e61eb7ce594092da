package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// Delta-overlay-over-packed-base differential: a graph whose snapshots
// use the varint-delta encoding must run the mutation machinery —
// tombstones against base flat indices, base-then-adds enumeration,
// re-basing at RebuildEvery — byte-identically to its int32 twin. The
// two twins receive the same mutation stream and their frozen delta
// views are compared entry-for-entry after every batch (and against a
// flat rebuild, via checkDeltaMatchesRebuild).

// checkViewsIdentical compares two frozen delta views entry-for-entry.
func checkViewsIdentical(t *testing.T, flat, packed *DeltaCSR) {
	t.Helper()
	if flat.N() != packed.N() || flat.M() != packed.M() {
		t.Fatalf("flat n/m = %d/%d, packed %d/%d", flat.N(), flat.M(), packed.N(), packed.M())
	}
	for v := VertexID(0); int(v) < flat.N(); v++ {
		if got, want := packed.OutDegree(v), flat.OutDegree(v); got != want {
			t.Fatalf("vertex %d: packed OutDegree %d, flat %d", v, got, want)
		}
		if got, want := collectOut(packed.ForEachOut, v), collectOut(flat.ForEachOut, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("vertex %d: packed out %v, flat %v", v, got, want)
		}
		if got, want := collectOut(packed.ForEachIn, v), collectOut(flat.ForEachIn, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("vertex %d: packed in %v, flat %v", v, got, want)
		}
	}
	checkSpans(t, flat)
	checkSpans(t, packed)
}

// checkSpans holds a view's span accessors to its enumerations — OutSpan
// with OutWeights to ForEachOut, InSpan to ForEachIn — and requires a
// full out sweep to allocate nothing once it has grown the Scratch.
func checkSpans(t *testing.T, d *DeltaCSR) {
	t.Helper()
	s := new(Scratch)
	for v := VertexID(0); int(v) < d.N(); v++ {
		dsts, ws := d.OutSpan(v, s), d.OutWeights(v, s)
		if ws != nil && len(ws) != len(dsts) {
			t.Fatalf("vertex %d: %d weights for %d destinations", v, len(ws), len(dsts))
		}
		var got []entry
		for i, dst := range dsts {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			got = append(got, entry{dst, w})
		}
		if want := collectOut(d.ForEachOut, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("vertex %d: out spans %v, ForEachOut %v", v, got, want)
		}
		var in []entry
		for _, src := range d.InSpan(v, s) {
			in = append(in, entry{V: src})
		}
		var want []entry
		d.ForEachIn(v, func(src VertexID, _ float64) { want = append(want, entry{V: src}) })
		if !reflect.DeepEqual(in, want) {
			t.Fatalf("vertex %d: InSpan %v, ForEachIn %v", v, in, want)
		}
	}
	sweep := func() {
		for v := VertexID(0); int(v) < d.N(); v++ {
			d.OutSpan(v, s)
			d.OutWeights(v, s)
		}
	}
	if allocs := testing.AllocsPerRun(3, sweep); allocs != 0 {
		t.Fatalf("out-span sweep allocated %v times per run", allocs)
	}
}

// runDualMutationScript drives the same seeded script through a flat
// graph and its packed-encoding twin, holding their delta views
// identical after every batch.
func runDualMutationScript(t *testing.T, flat, packed *Graph, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := flat.N()
	for s := 0; s < steps; s++ {
		var batch []Mutation
		for b := 1 + rng.Intn(5); b > 0; b-- {
			if rng.Intn(10) < 6 || flat.M() == 0 {
				batch = append(batch, Mutation{
					Op: InsertEdge,
					U:  VertexID(rng.Intn(n)),
					V:  VertexID(rng.Intn(n)),
					W:  float64(1 + rng.Intn(9)),
				})
			} else {
				k := rng.Intn(flat.M() * 2)
				found := false
				for u := range flat.Out {
					if k >= len(flat.Out[u]) {
						k -= len(flat.Out[u])
						continue
					}
					batch = append(batch, Mutation{Op: DeleteEdge, U: VertexID(u), V: flat.Out[u][k].Dst})
					found = true
					break
				}
				if found && rng.Intn(2) == 0 {
					break
				}
			}
		}
		_, errF := flat.ApplyMutations(batch)
		_, errP := packed.ApplyMutations(batch)
		if (errF == nil) != (errP == nil) {
			t.Fatalf("step %d: validation diverged: flat %v, packed %v", s, errF, errP)
		}
		if errF != nil {
			continue // invalid batch rejected by both, both untouched
		}
		if err := packed.Validate(); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		df := flat.PinDelta()
		dp := packed.PinDelta()
		checkViewsIdentical(t, df, dp)
		flat.UnpinDelta(df)
		packed.UnpinDelta(dp)
		checkDeltaMatchesRebuild(t, packed)
	}
}

// clonePacked deep-copies the graph (preserving exact adjacency order,
// which delete-earliest semantics depend on) and flips the twin to the
// packed snapshot encoding.
func clonePacked(src *Graph) *Graph {
	g := src.Clone()
	g.Encoding = EncodePacked
	return g
}

func TestDeltaViewPackedBaseUndirected(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		flat := RandomConnected(20, 40, seed)
		runDualMutationScript(t, flat, clonePacked(flat), seed*101, 15)
	}
}

func TestDeltaViewPackedBaseDirected(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		flat := New(16, true)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 40; i++ {
			flat.AddWeightedEdge(VertexID(rng.Intn(16)), VertexID(rng.Intn(16)), float64(1+rng.Intn(9)))
		}
		runDualMutationScript(t, flat, clonePacked(flat), seed*77, 15)
	}
}

// TestDeltaViewPackedBaseAcrossRebuild forces frequent re-basing so the
// overlay repeatedly republishes a fresh packed base mid-script.
func TestDeltaViewPackedBaseAcrossRebuild(t *testing.T) {
	flat := RandomConnected(24, 48, 3)
	packed := clonePacked(flat)
	flat.RebuildEvery = 7
	packed.RebuildEvery = 7
	runDualMutationScript(t, flat, packed, 99, 25)
	d := packed.PinDelta()
	adds, dels := d.OverlaySize()
	if adds+dels >= 7+5 {
		t.Fatalf("overlay not re-based over packed base: %d adds, %d dels", adds, dels)
	}
	if d.Base().packed == nil {
		t.Fatal("re-based overlay base is not packed despite EncodePacked")
	}
	packed.UnpinDelta(d)
}
