package pregel

import (
	"errors"
	"testing"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// echoProgram floods a counter k supersteps deep.
type echoProgram struct{ rounds int }

func (p *echoProgram) Init(g *graph.Graph, id VertexID) int { return 0 }

func (p *echoProgram) Compute(ctx *Context[int, int], msgs []int) {
	*ctx.Value() += len(msgs)
	if ctx.Superstep() < p.rounds {
		ctx.SendToNeighbors(1)
		return
	}
	ctx.VoteToHalt()
}

func TestEngineMessageDelivery(t *testing.T) {
	g := graph.Cycle(10)
	eng := NewEngine[int, int](g, &echoProgram{rounds: 3}, Config[int]{EngineConfig: rt.EngineConfig{Workers: 3}})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Each vertex sends 2 messages per superstep 0..2 and receives 2 in
	// supersteps 1..3: total 6 per vertex.
	for v, got := range res.Values {
		if got != 6 {
			t.Fatalf("vertex %d received %d, want 6", v, got)
		}
	}
	if res.Stats.TotalMessages != 10*2*3 {
		t.Fatalf("TotalMessages = %d, want 60", res.Stats.TotalMessages)
	}
}

func TestEngineHaltAndReactivate(t *testing.T) {
	// Vertex 0 pings vertex 1 at superstep 2 only; vertex 1 must be
	// reactivated despite voting to halt at superstep 0.
	g := graph.New(2, false)
	g.AddEdge(0, 1)
	prog := &pokeProgram{}
	eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 2}})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[1] != 42 {
		t.Fatalf("vertex 1 value = %d, want 42", res.Values[1])
	}
}

type pokeProgram struct{}

func (pokeProgram) Init(g *graph.Graph, id VertexID) int { return 0 }

func (pokeProgram) Compute(ctx *Context[int, int], msgs []int) {
	if ctx.ID() == 0 {
		switch ctx.Superstep() {
		case 0, 1:
			// Stay alive doing nothing (no halt vote at 0 and 1).
			if ctx.Superstep() == 1 {
				ctx.SendTo(1, 42)
				ctx.VoteToHalt()
			}
			return
		}
		ctx.VoteToHalt()
		return
	}
	for _, m := range msgs {
		*ctx.Value() = m
	}
	ctx.VoteToHalt()
}

func TestEngineCombiner(t *testing.T) {
	g := graph.Star(6) // center 0
	prog := &sendAllToCenter{}
	cfg := Config[int]{EngineConfig: rt.EngineConfig{Workers: 2}, Combiner: func(a, b int) int { return a + b }}
	eng := NewEngine[int, int](g, prog, cfg)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 5 {
		t.Fatalf("combined sum = %d, want 5", res.Values[0])
	}
}

type sendAllToCenter struct{}

func (sendAllToCenter) Init(g *graph.Graph, id VertexID) int { return 0 }

func (sendAllToCenter) Compute(ctx *Context[int, int], msgs []int) {
	if ctx.Superstep() == 0 && ctx.ID() != 0 {
		ctx.SendTo(0, 1)
	}
	for _, m := range msgs {
		*ctx.Value() += m
	}
	ctx.VoteToHalt()
}

func TestEngineAggregator(t *testing.T) {
	g := graph.Path(8)
	prog := &aggProgram{}
	eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 4}})
	eng.RegisterAggregator("sum", SumInt64())
	eng.RegisterAggregator("max", MaxInt64())
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Aggregators are per-superstep (Pregel semantics): contributions
	// made at superstep 0 are visible during superstep 1 and reset
	// afterwards. Vertex 3 snapshots the superstep-1 view.
	if res.Values[3] != 28 {
		t.Fatalf("vertex 3 observed %d at superstep 1, want 28", res.Values[3])
	}
	// After the final (contribution-free) superstep the aggregate is
	// back at its zero value.
	if got := res.Aggregates["sum"].(int64); got != 0 {
		t.Fatalf("final sum aggregate = %d, want 0 (per-superstep reset)", got)
	}
}

type aggProgram struct{}

func (aggProgram) Init(g *graph.Graph, id VertexID) int { return -1 }

func (aggProgram) Compute(ctx *Context[int, int], msgs []int) {
	switch ctx.Superstep() {
	case 0:
		ctx.Aggregate("sum", int64(ctx.ID()))
		ctx.Aggregate("max", int64(ctx.ID()))
		return
	case 1:
		*ctx.Value() = int(ctx.Agg("sum").(int64))
	}
	ctx.VoteToHalt()
}

// masterProgram exercises globals, ActivateAll, and Halt.
type masterProgram struct{ halted bool }

func (p *masterProgram) Init(g *graph.Graph, id VertexID) int { return 0 }

func (p *masterProgram) BeforeSuperstep(mc *MasterContext) {
	mc.SetGlobal("round", mc.Superstep())
	if mc.Superstep() == 3 {
		mc.Halt()
		p.halted = true
		return
	}
	mc.ActivateAll()
}

func (p *masterProgram) Compute(ctx *Context[int, int], msgs []int) {
	*ctx.Value() = ctx.Global("round").(int)
	ctx.VoteToHalt() // master reactivates everyone each superstep
}

func TestEngineMasterControl(t *testing.T) {
	g := graph.New(5, false)
	prog := &masterProgram{}
	eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 2}})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !prog.halted {
		t.Fatal("master never halted")
	}
	if res.Supersteps != 3 {
		t.Fatalf("supersteps = %d, want 3", res.Supersteps)
	}
	for v, val := range res.Values {
		if val != 2 {
			t.Fatalf("vertex %d saw round %d, want 2", v, val)
		}
	}
}

func TestEngineSuperstepCap(t *testing.T) {
	g := graph.Cycle(4)
	prog := &echoProgram{rounds: 1 << 30}
	eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 1, MaxSupersteps: 5}})
	_, err := eng.Run()
	if !errors.Is(err, ErrSuperstepCap) {
		t.Fatalf("err = %v, want ErrSuperstepCap", err)
	}
}

func TestEngineMutation(t *testing.T) {
	g := graph.Complete(4)
	prog := &pruneProgram{}
	eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 2}})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// After pruning, each vertex kept only even-ID neighbors; a second
	// superstep counts messages over the mutated adjacency.
	if res.Values[1] != 0 || res.Values[0] != 1 {
		t.Fatalf("values = %v", res.Values)
	}
}

type pruneProgram struct{}

func (pruneProgram) Init(g *graph.Graph, id VertexID) int { return 0 }

func (pruneProgram) Compute(ctx *Context[int, int], msgs []int) {
	switch ctx.Superstep() {
	case 0:
		var kept []graph.Edge
		for _, e := range ctx.OutEdges() {
			if e.Dst%2 == 0 {
				kept = append(kept, e)
			}
		}
		ctx.SetOutEdges(kept)
	case 1:
		if ctx.ID() == 3 {
			ctx.SendToNeighbors(1) // reaches only even vertices: 0, 2
		}
	default:
		*ctx.Value() += len(msgs)
	}
	if ctx.Superstep() >= 2 {
		ctx.VoteToHalt()
	}
}

func TestEngineWorkerCountInvariance(t *testing.T) {
	g := graph.Random(100, 300, 17)
	run := func(workers int) []int {
		prog := &echoProgram{rounds: 4}
		eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: workers}})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	}
	one := run(1)
	eight := run(8)
	for v := range one {
		if one[v] != eight[v] {
			t.Fatalf("vertex %d differs across worker counts: %d vs %d", v, one[v], eight[v])
		}
	}
}

func TestEngineStatsShape(t *testing.T) {
	g := graph.Path(20)
	prog := &echoProgram{rounds: 2}
	eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 4}})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Workers != 4 || st.N != 20 {
		t.Fatalf("stats meta = %+v", st)
	}
	if st.NumSupersteps() != res.Supersteps {
		t.Fatalf("stats supersteps %d != %d", st.NumSupersteps(), res.Supersteps)
	}
	var sent int64
	for _, ss := range st.Supersteps {
		for w := 0; w < 4; w++ {
			sent += ss.Sent[w]
		}
	}
	if sent != st.TotalMessages {
		t.Fatalf("per-superstep sent %d != TotalMessages %d", sent, st.TotalMessages)
	}
	// Interior path vertices have degree 2 and send 2 messages per
	// superstep: sent/deg ratio stays <= 1 (deg+1 normalization).
	if st.MaxSentPerDeg > 1 {
		t.Fatalf("MaxSentPerDeg = %v, want <= 1", st.MaxSentPerDeg)
	}
}

func TestEngineRandDeterministic(t *testing.T) {
	g := graph.New(3, false)
	prog := &randProgram{}
	run := func() []int {
		eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 2}, Seed: 99})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return append([]int(nil), res.Values...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Rand not deterministic at vertex %d: %d vs %d", i, a[i], b[i])
		}
	}
	if a[0] == a[1] && a[1] == a[2] {
		t.Fatal("Rand identical across vertices; seeds not mixed")
	}
}

type randProgram struct{}

func (randProgram) Init(g *graph.Graph, id VertexID) int { return 0 }

func (randProgram) Compute(ctx *Context[int, int], msgs []int) {
	*ctx.Value() = ctx.Rand().Intn(1 << 20)
	ctx.VoteToHalt()
}

func TestEngineInEdgesDirected(t *testing.T) {
	g := graph.New(3, true)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.EnsureIn()
	prog := &inEdgeCounter{}
	eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 2}})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[2] != 2 || res.Values[0] != 0 {
		t.Fatalf("in-degrees observed: %v", res.Values)
	}
}

type inEdgeCounter struct{}

func (inEdgeCounter) Init(g *graph.Graph, id VertexID) int { return -1 }

func (inEdgeCounter) Compute(ctx *Context[int, int], msgs []int) {
	*ctx.Value() = len(ctx.InEdges())
	ctx.VoteToHalt()
}

func TestEngineCollectAggregator(t *testing.T) {
	g := graph.Path(5)
	prog := &collectProgram{}
	eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 3}})
	eng.RegisterAggregator("ids", Collect[VertexID]())
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if len(prog.seen) != 5 {
		t.Fatalf("collected %d ids: %v", len(prog.seen), prog.seen)
	}
}

type collectProgram struct{ seen []VertexID }

func (p *collectProgram) BeforeSuperstep(mc *MasterContext) {
	if ids, ok := mc.Agg("ids").([]VertexID); ok {
		p.seen = append(p.seen, ids...)
	}
}

func (p *collectProgram) Init(g *graph.Graph, id VertexID) int { return 0 }

func (p *collectProgram) Compute(ctx *Context[int, int], msgs []int) {
	if ctx.Superstep() == 0 {
		ctx.Aggregate("ids", ctx.ID())
		return
	}
	ctx.VoteToHalt()
}

func TestEnginePendingMessagesVisibleToMaster(t *testing.T) {
	g := graph.Star(9)
	prog := &pendingWatcher{}
	eng := NewEngine[int, int](g, prog, Config[int]{EngineConfig: rt.EngineConfig{Workers: 2}})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Superstep 1's master hook must see the 8 leaf->center messages.
	if prog.observed != 8 {
		t.Fatalf("master observed %d pending messages, want 8", prog.observed)
	}
}

type pendingWatcher struct{ observed int }

func (p *pendingWatcher) BeforeSuperstep(mc *MasterContext) {
	if mc.Superstep() == 1 {
		p.observed = mc.PendingMessages()
	}
}

func (p *pendingWatcher) Init(g *graph.Graph, id VertexID) int { return 0 }

func (p *pendingWatcher) Compute(ctx *Context[int, int], msgs []int) {
	if ctx.Superstep() == 0 && ctx.ID() != 0 {
		ctx.SendTo(0, 1)
	}
	ctx.VoteToHalt()
}

func TestEngineCombinedSum(t *testing.T) {
	// With a sum combiner the center's inbox is a single message, and
	// the result is exact regardless of workers.
	g := graph.Star(40)
	cfg := Config[int]{
		EngineConfig: rt.EngineConfig{Workers: 6},
		Combiner:     func(a, b int) int { return a + b },
	}
	eng := NewEngine[int, int](g, &sendAllToCenter{}, cfg)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 39 {
		t.Fatalf("combined sum %d", res.Values[0])
	}
}

func TestCheckpointWithCustomPartition(t *testing.T) {
	g := graph.PermutedPath(128, 4)
	run := func(cfg Config[VertexID]) []VertexID {
		eng := NewEngine[VertexID, VertexID](g, &ckProgram{}, cfg)
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	}
	clean := run(Config[VertexID]{EngineConfig: rt.EngineConfig{Workers: 3, Partition: PartitionDegreeBalanced}})
	rec := run(Config[VertexID]{
		EngineConfig: rt.EngineConfig{Workers: 3, Partition: PartitionDegreeBalanced, CheckpointEvery: 8, Faults: rt.PlanOf(rt.Crash(20))},
	})
	for v := range clean {
		if clean[v] != rec[v] {
			t.Fatalf("vertex %d differs after recovery under custom partition", v)
		}
	}
}
