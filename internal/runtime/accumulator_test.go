package runtime

import (
	"testing"
)

func TestChoosePull(t *testing.T) {
	cases := []struct {
		name       string
		mode       DirectionMode
		combinable bool
		frontier   int
		n          int
		want       bool
	}{
		{"no combiner blocks even forced pull", DirectionPull, false, 1000, 1000, false},
		{"push pins regardless of density", DirectionPush, true, 1000, 1000, false},
		{"pull forces regardless of density", DirectionPull, true, 0, 1000, true},
		{"auto pulls a dense frontier", DirectionAuto, true, 51, 1000, true},
		{"auto pushes at exactly n/20", DirectionAuto, true, 50, 1000, false},
		{"auto pushes a sparse frontier", DirectionAuto, true, 3, 1000, false},
	}
	for _, tc := range cases {
		if got := ChoosePull(tc.mode, tc.combinable, tc.frontier, tc.n); got != tc.want {
			t.Errorf("%s: ChoosePull = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDirectionModeStrings(t *testing.T) {
	for _, s := range []string{"push", "pull", "auto"} {
		m, err := ParseDirectionMode(s)
		if err != nil {
			t.Fatal(err)
		}
		if m.String() != s {
			t.Errorf("round trip %q -> %v -> %q", s, m, m.String())
		}
	}
}

func TestBroadcastsEpochs(t *testing.T) {
	bc := NewBroadcasts[int](4)
	sum := func(a, m int) int { return a + m }
	bc.Set(2, 5, sum)
	bc.Set(2, 7, sum) // folds into the slot, bumps the raw count
	if !bc.Has(2) || bc.Has(1) {
		t.Fatal("Has after Set is wrong")
	}
	if v, c := bc.Get(2); v != 12 || c != 2 {
		t.Fatalf("Get = (%d, %d), want (12, 2)", v, c)
	}
	bc.Advance()
	if bc.Has(2) {
		t.Fatal("Advance did not invalidate the slot")
	}
	// nil comb: set semantics, first value wins, count still accumulates.
	bc.Set(0, 1, nil)
	bc.Set(0, 9, nil)
	if v, c := bc.Get(0); v != 1 || c != 2 {
		t.Fatalf("set-semantics Get = (%d, %d), want (1, 2)", v, c)
	}
}

// TestGathererFoldOrder pins the bit-identity contract: contributions
// fold per source worker in ascending source order first, then across
// workers in worker order 0..P-1 — the exact shape of the push path's
// lane folds. An order-recording "combiner" makes any deviation
// visible.
func TestGathererFoldOrder(t *testing.T) {
	// Vertices 0..5 owned by workers [0,1,0,1,2,2]; sources 5,0,3,2
	// broadcast. The transpose span arrives ascending: 0,2,3,5.
	owner := []int32{0, 1, 0, 1, 2, 2}
	bc := NewBroadcasts[string](6)
	concat := func(a, m string) string { return a + m }
	for _, src := range []VertexID{5, 0, 3, 2} {
		bc.Set(src, string(rune('a'+int(src))), concat)
	}
	g := NewGatherer[string](3)
	acc, raw, ok := g.Gather(bc, owner, []VertexID{0, 2, 3, 5}, concat)
	if !ok || raw != 4 {
		t.Fatalf("Gather = (%q, %d, %v)", acc, raw, ok)
	}
	// Worker 0 folds a,c; worker 1 folds d; worker 2 folds f; then the
	// partials fold in worker order: (a+c) + (d) + (f).
	if acc != "acdf" {
		t.Fatalf("fold order %q, want %q", acc, "acdf")
	}
	// The scratch must be clean for the next destination.
	acc, raw, ok = g.Gather(bc, owner, []VertexID{3}, concat)
	if !ok || raw != 1 || acc != "d" {
		t.Fatalf("second Gather = (%q, %d, %v)", acc, raw, ok)
	}
	if _, _, ok := g.Gather(bc, owner, []VertexID{1, 4}, concat); ok {
		t.Fatal("Gather over silent sources reported ok")
	}
}

// TestPullPathZeroAlloc is the tentpole's memory claim: after warm-up,
// one full pull cycle — publish broadcasts, advance the epoch, gather
// every destination, deposit into the mailbox — performs zero heap
// allocations. The mailbox inbox buffers are reused via ResetVertex,
// the broadcast slots via the epoch tag, and the gather scratch is
// cleared in place.
func TestPullPathZeroAlloc(t *testing.T) {
	const n, workers = 64, 4
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = int32(v % workers)
	}
	sum := func(a, m float64) float64 { return a + m }
	bc := NewBroadcasts[float64](n)
	ga := NewGatherer[float64](workers)
	mbox := NewMailbox[float64](workers, owner, sum)
	srcs := make([]VertexID, n)
	for v := range srcs {
		srcs[v] = VertexID(v)
	}
	cycle := func() {
		bc.Advance()
		for v := 0; v < n; v++ {
			bc.Set(VertexID(v), float64(v), sum)
		}
		for v := 0; v < n; v++ {
			mbox.ResetVertex(VertexID(v))
		}
		for v := 0; v < n; v++ {
			acc, raw, ok := ga.Gather(bc, owner, srcs, sum)
			if !ok {
				t.Fatal("gather found no broadcasts")
			}
			mbox.DepositPulled(VertexID(v), acc, raw, nil)
		}
	}
	cycle() // warm the inbox buffers
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Fatalf("pull cycle allocates %.1f times per superstep, want 0", avg)
	}
}
