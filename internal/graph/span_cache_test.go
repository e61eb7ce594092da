package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// Block-cache differential: OutSpan/InSpan on a packed snapshot read
// through the Scratch's per-method block cache, and must return exactly
// the flat snapshot's spans whatever the visiting order, however the
// methods interleave and whichever streams share the Scratch.

// spanTwins returns a flat and a packed snapshot of g with their
// transposes built.
func spanTwins(g *Graph) (flat, packed *CSR) {
	flat, packed = BuildCSR(g), BuildPackedCSR(g)
	flat.EnsureIn()
	packed.EnsureIn()
	return flat, packed
}

// spanGraphs covers undirected graphs with hubs (spans crossing many
// blocks) and a directed graph (separate out- and in-streams).
func spanGraphs() map[string]*Graph {
	return map[string]*Graph{
		"powerlaw": PreferentialAttachment(700, 4, 1),
		"rmat":     RMAT(9, 4000, 2),
		"directed": RandomDirected(300, 6000, 3),
		"path":     Path(200),
		"isolated": New(70, false),
		"star":     Star(300),
	}
}

// visitOrders returns the vertex orders a sweep may take: ascending,
// descending, seeded random, and each worker's share of a W-way
// round-robin partition (swept in turn) for W = 2 and 3.
func visitOrders(n int) map[string][]VertexID {
	asc := make([]VertexID, n)
	for v := range asc {
		asc[v] = VertexID(v)
	}
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	rnd := slices.Clone(asc)
	rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) { rnd[i], rnd[j] = rnd[j], rnd[i] })
	orders := map[string][]VertexID{"asc": asc, "desc": desc, "random": rnd}
	for _, w := range []int{2, 3} {
		var strided []VertexID
		for k := 0; k < w; k++ {
			for v := k; v < n; v += w {
				strided = append(strided, VertexID(v))
			}
		}
		orders["strided"+string(rune('0'+w))] = strided
	}
	return orders
}

// TestPackedSpansMatchFlat holds packed spans to flat ones: in every
// visiting order with Out and In interleaved on one Scratch, with two
// snapshots alternating on one Scratch, and through a delta view.
func TestPackedSpansMatchFlat(t *testing.T) {
	t.Run("orders", testPackedSpansOrders)
	t.Run("two-snapshots", testPackedSpansTwoSnapshots)
	t.Run("delta", testPackedSpansDelta)
}

func testPackedSpansOrders(t *testing.T) {
	for name, g := range spanGraphs() {
		flat, packed := spanTwins(g)
		for oname, order := range visitOrders(g.N()) {
			s := new(Scratch)
			for _, v := range order {
				out, in := packed.OutSpan(v, s), packed.InSpan(v, s)
				if !slices.Equal(out, flat.OutSpan(v, nil)) {
					t.Fatalf("%s/%s: OutSpan(%d) = %v, want %v", name, oname, v, out, flat.OutSpan(v, nil))
				}
				if !slices.Equal(in, flat.InSpan(v, nil)) {
					t.Fatalf("%s/%s: InSpan(%d) = %v, want %v", name, oname, v, in, flat.InSpan(v, nil))
				}
			}
		}
	}
}

// testPackedSpansTwoSnapshots alternates two packed CSRs — different
// graphs whose streams have the same block indices — on one Scratch:
// the stream key must keep either's cached block from serving the
// other.
func testPackedSpansTwoSnapshots(t *testing.T) {
	fa, pa := spanTwins(PreferentialAttachment(500, 4, 11))
	fb, pb := spanTwins(PreferentialAttachment(500, 4, 12))
	s := new(Scratch)
	for v := VertexID(0); v < 500; v++ {
		for _, tw := range [][2]*CSR{{fa, pa}, {fb, pb}} {
			if got, want := tw[1].OutSpan(v, s), tw[0].OutSpan(v, nil); !slices.Equal(got, want) {
				t.Fatalf("OutSpan(%d) = %v, want %v", v, got, want)
			}
			if got, want := tw[1].InSpan(v, s), tw[0].InSpan(v, nil); !slices.Equal(got, want) {
				t.Fatalf("InSpan(%d) = %v, want %v", v, got, want)
			}
		}
	}
}

// testPackedSpansDelta reads a delta view with adds and deletes over a
// packed base — touched vertices assembled in the buffers, untouched
// ones through the caches — interleaved with reads of the base itself
// on the same Scratch.
func testPackedSpansDelta(t *testing.T) {
	for _, directed := range []bool{false, true} {
		var flat *Graph
		if directed {
			flat = RandomDirected(200, 3000, 5)
		} else {
			flat = PreferentialAttachment(400, 4, 5)
		}
		packed := clonePacked(flat)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 40; i++ {
			u := VertexID(rng.Intn(flat.N()))
			m := Mutation{Op: InsertEdge, U: u, V: VertexID(rng.Intn(flat.N())), W: 1}
			if i%2 == 0 && len(flat.Out[u]) > 0 {
				m = Mutation{Op: DeleteEdge, U: u, V: flat.Out[u][rng.Intn(len(flat.Out[u]))].Dst}
			}
			_, errF := flat.ApplyMutations([]Mutation{m})
			if _, errP := packed.ApplyMutations([]Mutation{m}); (errF == nil) != (errP == nil) {
				t.Fatalf("directed=%v: mutation %v: flat %v, packed %v", directed, m, errF, errP)
			}
		}
		df, dp := flat.PinDelta(), packed.PinDelta()
		if adds, dels := dp.OverlaySize(); adds == 0 || dels == 0 {
			t.Fatalf("directed=%v: overlay has %d adds, %d dels; want both", directed, adds, dels)
		}
		base := dp.Base()
		base.EnsureIn()
		s, fs := new(Scratch), new(Scratch)
		for oname, order := range visitOrders(flat.N()) {
			for _, v := range order {
				if got, want := dp.OutSpan(v, s), df.OutSpan(v, fs); !slices.Equal(got, want) {
					t.Fatalf("directed=%v %s: delta OutSpan(%d) = %v, want %v", directed, oname, v, got, want)
				}
				base.OutSpan(v, s)
				if got, want := dp.InSpan(v, s), df.InSpan(v, fs); !slices.Equal(got, want) {
					t.Fatalf("directed=%v %s: delta InSpan(%d) = %v, want %v", directed, oname, v, got, want)
				}
				base.InSpan(v, s)
			}
		}
		flat.UnpinDelta(df)
		packed.UnpinDelta(dp)
	}
}

// TestPackedSpanAppendDoesNotLeak appends to every returned span: a
// single-block span is a capacity-capped view of the cache, so the
// append must reallocate rather than overwrite the cached block that
// later spans are served from.
func TestPackedSpanAppendDoesNotLeak(t *testing.T) {
	g := PreferentialAttachment(600, 4, 3)
	flat, packed := spanTwins(g)
	s := new(Scratch)
	for v := VertexID(0); int(v) < g.N(); v++ {
		out := packed.OutSpan(v, s)
		_ = append(out, -1, -1, -1)
		in := packed.InSpan(v, s)
		_ = append(in, -2, -2, -2)
	}
	for v := VertexID(0); int(v) < g.N(); v++ {
		for _, u := range []VertexID{v, VertexID(g.N()-1) - v} {
			if got, want := packed.OutSpan(u, s), flat.OutSpan(u, nil); !slices.Equal(got, want) {
				t.Fatalf("OutSpan(%d) after appends = %v, want %v", u, got, want)
			}
			if got, want := packed.InSpan(u, s), flat.InSpan(u, nil); !slices.Equal(got, want) {
				t.Fatalf("InSpan(%d) after appends = %v, want %v", u, got, want)
			}
			_ = append(packed.OutSpan(u, s), -3)
		}
	}
}

func TestPackedInSpanSweepAllocatesNothing(t *testing.T) {
	_, packed := spanTwins(PreferentialAttachment(2000, 4, 4))
	s := new(Scratch)
	sweep := func() {
		for v := VertexID(0); int(v) < packed.N(); v++ {
			packed.InSpan(v, s)
		}
	}
	sweep()
	if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
		if raceEnabled {
			t.Logf("in-span sweep allocated %v times per run (race build, not enforced)", allocs)
		} else {
			t.Fatalf("in-span sweep allocated %v times per run, want 0", allocs)
		}
	}
}

// TestPackedSweepDecodesEachBlockOnce sweeps one worker's in-spans in
// ascending order. Every block is poisoned (overwritten with overlong
// varints) as soon as the in cache has moved onto it, so a second
// decode of any block panics; the cache's block index must move only
// forward and must end on the last block.
func TestPackedSweepDecodesEachBlockOnce(t *testing.T) {
	for name, g := range map[string]*Graph{
		"powerlaw": PreferentialAttachment(2000, 4, 6),
		"directed": RandomDirected(400, 9000, 6),
	} {
		flat, packed := spanTwins(g)
		want := make([][]VertexID, g.N())
		for v := range want {
			want[v] = flat.InSpan(VertexID(v), nil)
		}
		p := packed.inPacked
		nb := packedNumBlocks(int(p.n))
		s := new(Scratch)
		poisoned, changes := -1, 0
		for v := VertexID(0); int(v) < g.N(); v++ {
			prev := s.ic.b
			if got := packed.InSpan(v, s); !slices.Equal(got, want[v]) {
				t.Fatalf("%s: InSpan(%d) = %v, want %v", name, v, got, want[v])
			}
			if s.ic.p == nil {
				continue // empty span: nothing decoded
			}
			if s.ic.b < prev {
				t.Fatalf("%s: vertex %d moved the in cache back from block %d to %d", name, v, prev, s.ic.b)
			}
			if s.ic.b != prev || changes == 0 {
				changes++
			}
			for ; poisoned < s.ic.b; poisoned++ {
				for i := p.boff[poisoned+1]; i < p.boff[poisoned+2]; i++ {
					p.data[i] = 0xff
				}
			}
		}
		if s.ic.p != p || s.ic.b != nb-1 {
			t.Fatalf("%s: sweep ended on block %d of %d", name, s.ic.b, nb)
		}
		t.Logf("%s: %d blocks, in cache moved %d times", name, nb, changes)
	}
}

func TestScratchResetDropsStreams(t *testing.T) {
	_, packed := spanTwins(RandomDirected(100, 900, 8))
	s := new(Scratch)
	for v := VertexID(0); v < 100; v++ {
		packed.OutSpan(v, s)
		packed.InSpan(v, s)
	}
	if s.oc.p == nil || s.ic.p == nil {
		t.Fatal("sweep left a cache empty")
	}
	s.Reset()
	if s.oc.p != nil || s.ic.p != nil {
		t.Fatal("Reset kept a stream reachable")
	}
}
