package pregel

import (
	"testing"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// fcsProgram is hash-min with a serial finisher, self-contained for the
// engine tests.
type fcsProgram struct{}

func (fcsProgram) Init(g *graph.Graph, id VertexID) VertexID { return id }

func (fcsProgram) Compute(ctx *Context[VertexID, VertexID], msgs []VertexID) {
	v := ctx.Value()
	min := *v
	for _, m := range msgs {
		if m < min {
			min = m
		}
	}
	if min < *v || ctx.Superstep() == 0 {
		*v = min
		ctx.SendToNeighbors(*v)
	}
	ctx.VoteToHalt()
}

func (fcsProgram) FinishSerially(fc *FinishContext[VertexID, VertexID]) int64 {
	var work int64
	queue := append([]VertexID(nil), fc.Active()...)
	for _, v := range fc.Active() {
		for _, m := range fc.Inbox(v) {
			work++
			if m < *fc.Value(v) {
				*fc.Value(v) = m
			}
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		label := *fc.Value(v)
		for _, e := range fc.OutEdges(v) {
			work++
			if label < *fc.Value(e.Dst) {
				*fc.Value(e.Dst) = label
				queue = append(queue, e.Dst)
			}
		}
	}
	return work
}

func TestFCSMatchesFullRun(t *testing.T) {
	// A path with permuted IDs: after a few supersteps only the global
	// minimum's wavefront stays active (each vertex's label changes
	// O(log n) times in expectation on random orderings), which is the
	// long thin tail FCS exists for.
	g := permutedPath(512, 7)
	run := func(threshold int) ([]VertexID, int) {
		eng := NewEngine[VertexID, VertexID](g, fcsProgram{}, Config[VertexID]{
			EngineConfig: rt.EngineConfig{Workers: 3},
			FCSThreshold: threshold,
		})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Values, res.Supersteps
	}
	clean, cleanSS := run(0)
	fcs, fcsSS := run(32)
	for v := range clean {
		if clean[v] != fcs[v] {
			t.Fatalf("vertex %d: clean=%d fcs=%d", v, clean[v], fcs[v])
		}
	}
	// The single-wavefront tail dominates the clean run: FCS must cut
	// the superstep count drastically.
	if fcsSS*4 > cleanSS {
		t.Fatalf("FCS supersteps %d vs clean %d: expected >4x reduction", fcsSS, cleanSS)
	}
}

// permutedPath is a path over randomly permuted vertex IDs.
func permutedPath(n int, seed int64) *graph.Graph {
	g := graph.New(n, false)
	perm := permIDs(n, seed)
	for i := 0; i < n-1; i++ {
		g.AddEdge(perm[i], perm[i+1])
	}
	g.SortAdjacency()
	return g
}

func permIDs(n int, seed int64) []VertexID {
	out := make([]VertexID, n)
	for i := range out {
		out[i] = VertexID(i)
	}
	s := uint64(seed)*2862933555777941757 + 3037000493
	for i := n - 1; i > 0; i-- {
		s = s*2862933555777941757 + 3037000493
		j := int(s % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func TestFCSTriggersOnlyBelowThreshold(t *testing.T) {
	// On a star, hash-min finishes in 3 supersteps with a big frontier;
	// threshold 1 never triggers.
	g := graph.Star(64)
	eng := NewEngine[VertexID, VertexID](g, fcsProgram{}, Config[VertexID]{
		EngineConfig: rt.EngineConfig{Workers: 2},
		FCSThreshold: 1,
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for v, val := range res.Values {
		if val != 0 {
			t.Fatalf("vertex %d label %d", v, val)
		}
	}
}

// TestFCSPinsPushOnTinyFrontierUnderAutoPull checks the FCS × pull
// interaction: DirectionPull pulls every combiner superstep, but once
// the frontier is at or below the FCS threshold a pulled superstep
// would scan all n broadcast slots to serve a frontier the serial
// finisher is about to absorb — so the engine pins push there. Results
// must not change.
func TestFCSPinsPushOnTinyFrontierUnderAutoPull(t *testing.T) {
	g := permutedPath(512, 11)
	minC := func(a, b graph.VertexID) graph.VertexID {
		if a < b {
			return a
		}
		return b
	}
	run := func(fcs int) ([]VertexID, []struct {
		frontier int
		pulled   bool
	}) {
		eng := NewEngine[VertexID, VertexID](g, fcsProgram{}, Config[VertexID]{
			EngineConfig: rt.EngineConfig{Workers: 3, Mode: rt.DirectionPull},
			Combiner:     minC,
			FCSThreshold: fcs,
		})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		steps := make([]struct {
			frontier int
			pulled   bool
		}, len(res.Stats.Supersteps))
		for i, ss := range res.Stats.Supersteps {
			var active int64
			for _, a := range ss.Active {
				active += a
			}
			steps[i] = struct {
				frontier int
				pulled   bool
			}{int(active), ss.Pulled}
		}
		return res.Values, steps
	}

	clean, cleanSteps := run(0)
	for i, st := range cleanSteps {
		if st.frontier > 0 && !st.pulled {
			t.Fatalf("no-FCS superstep %d (frontier %d) pushed under DirectionPull", i, st.frontier)
		}
	}

	fcs, fcsSteps := run(32)
	for v := range clean {
		if clean[v] != fcs[v] {
			t.Fatalf("vertex %d: clean=%d fcs=%d", v, clean[v], fcs[v])
		}
	}
	sawPull, sawPinnedPush := false, false
	for i, st := range fcsSteps {
		if st.frontier > 32 {
			if !st.pulled {
				t.Fatalf("dense superstep %d (frontier %d) was not pulled", i, st.frontier)
			}
			sawPull = true
		} else if st.frontier > 0 {
			if st.pulled {
				t.Fatalf("tiny-frontier superstep %d (frontier %d) pulled despite the FCS pin", i, st.frontier)
			}
			sawPinnedPush = true
		}
	}
	if !sawPull || !sawPinnedPush {
		t.Fatalf("run exercised pull=%v pinned-push=%v; want both", sawPull, sawPinnedPush)
	}
}

func TestFCSWithoutFinisherIsIgnored(t *testing.T) {
	// echoProgram has no FinishSerially: threshold must be a no-op.
	g := graph.Cycle(16)
	eng := NewEngine[int, int](g, &echoProgram{rounds: 3}, Config[int]{
		EngineConfig: rt.EngineConfig{Workers: 2},
		FCSThreshold: 100,
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range res.Values {
		if got != 6 {
			t.Fatalf("value %d, want 6", got)
		}
	}
}

func TestFCSChargesSerialWorkToOneWorker(t *testing.T) {
	g := graph.Path(256)
	eng := NewEngine[VertexID, VertexID](g, fcsProgram{}, Config[VertexID]{
		EngineConfig: rt.EngineConfig{Workers: 4},
		FCSThreshold: 4,
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	last := res.Stats.Supersteps[len(res.Stats.Supersteps)-1]
	if last.Work[0] == 0 {
		t.Fatal("serial step carries no work")
	}
	for w := 1; w < 4; w++ {
		if last.Work[w] != 0 {
			t.Fatalf("serial step leaked work to worker %d", w)
		}
	}
}
