package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	"vcgraph/internal/pregel"
)

// CCResult holds a connected-components labeling: Color[v] is the
// smallest vertex ID in v's component (the paper's component "color").
type CCResult struct {
	Color []VertexID
	Stats *bsp.Stats
}

type hashMinValue struct{ min VertexID }

// hashMinStep is one Hash-Min superstep at ctx's vertex, whose label is
// s: superstep 0 folds the min over {v} ∪ neighbors(v) and broadcasts
// it; later supersteps relax the label to the smallest message and
// broadcast only a strict decrease. It reports whether the label moved.
// Both the dense program (s is the engine's value) and the packed one
// (s is loaded from its store) run this body.
func hashMinStep[V any](ctx *pregel.Context[V, VertexID], s *hashMinValue, msgs []VertexID) bool {
	old := s.min
	if ctx.Superstep() == 0 {
		ctx.ForEachOut(func(dst VertexID, w float64) {
			ctx.Charge(1)
			s.min = min(s.min, dst)
		})
		ctx.SendToNeighbors(s.min)
		ctx.VoteToHalt()
		return s.min != old
	}
	u := old
	for _, m := range msgs {
		u = min(u, m)
	}
	moved := u < old
	if moved {
		s.min = u
		ctx.SendToNeighbors(u)
	}
	ctx.VoteToHalt()
	return moved
}

// hashMinFinish completes Hash-Min with a sequential min-label
// relaxation seeded from the still-active frontier (the FCS
// optimization of Salihoglu & Widom, enabled via Config.FCS), over the
// label accessors get and set.
func hashMinFinish[V any](fc *pregel.FinishContext[V, VertexID], get func(VertexID) VertexID, set func(v, label VertexID)) int64 {
	var work int64
	queue := make([]VertexID, 0, len(fc.Active()))
	for _, v := range fc.Active() {
		label := get(v)
		for _, m := range fc.Inbox(v) {
			work++
			label = min(label, m)
		}
		set(v, label)
		queue = append(queue, v)
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		label := get(v)
		fc.ForEachOut(v, func(dst VertexID, _ float64) {
			work++
			if label < get(dst) {
				set(dst, label)
				queue = append(queue, dst)
			}
		})
	}
	return work
}

// hashMinProgram keeps each label in the engine's value array.
type hashMinProgram struct{}

func (hashMinProgram) Init(g *graph.Graph, id VertexID) hashMinValue {
	return hashMinValue{min: id}
}

func (hashMinProgram) Compute(ctx *pregel.Context[hashMinValue, VertexID], msgs []VertexID) {
	hashMinStep(ctx, ctx.Value(), msgs)
}

func (hashMinProgram) StateUnits(v *hashMinValue) int64 { return 1 }

func (hashMinProgram) FinishSerially(fc *pregel.FinishContext[hashMinValue, VertexID]) int64 {
	return hashMinFinish(fc,
		func(v VertexID) VertexID { return fc.Value(v).min },
		func(v, label VertexID) { fc.Value(v).min = label })
}

// hashMinPacked is Hash-Min over bit-packed labels (Config.PackedState):
// a label is a vertex ID in [0, n), so it needs ⌈log₂ n⌉ bits rather
// than a value slot, and the engine's value array is empty. Each
// superstep loads the label, runs hashMinStep and stores it back only
// if it moved, so a packed run is byte-identical to the dense one.
type hashMinPacked struct{ labels StateStore }

func (p *hashMinPacked) Init(g *graph.Graph, id VertexID) struct{} {
	p.labels.Set(int(id), uint64(id))
	return struct{}{}
}

func (p *hashMinPacked) Compute(ctx *pregel.Context[struct{}, VertexID], msgs []VertexID) {
	s := hashMinValue{min: p.label(ctx.ID())}
	if hashMinStep(ctx, &s, msgs) {
		p.setLabel(ctx.ID(), s.min)
	}
}

func (p *hashMinPacked) label(v VertexID) VertexID    { return VertexID(p.labels.Get(int(v))) }
func (p *hashMinPacked) setLabel(v, label VertexID)   { p.labels.Set(int(v), uint64(label)) }
func (p *hashMinPacked) StateUnits(v *struct{}) int64 { return 1 }

func (p *hashMinPacked) FinishSerially(fc *pregel.FinishContext[struct{}, VertexID]) int64 {
	return hashMinFinish(fc, p.label, p.setLabel)
}

// Snapshot/Restore implement pregel.Snapshotter: the engine's
// checkpoints carry only the (empty) value array, so the store rides
// along here.
func (p *hashMinPacked) Snapshot() any { return p.labels.Clone() }

func (p *hashMinPacked) Restore(s any) { p.labels.CopyFrom(s.(StateStore)) }

// HashMinCC runs the Hash-Min connected components algorithm of the
// Pregel paper (Table 1 row 3: O(δ) supersteps, O(mδ) work, vs. the
// O(m+n) BFS baseline).
func HashMinCC(g *graph.Graph, cfg Config) (*CCResult, error) {
	return PrepareHashMinCC(g, cfg)()
}

// PrepareHashMinCC is the job-scoped form of HashMinCC: the engine is
// constructed (and the snapshot pinned) now, under whatever lock the
// caller holds; the returned closure runs lock-free.
func PrepareHashMinCC(g *graph.Graph, cfg Config) func() (*CCResult, error) {
	run := hashMinPregel(g, Args{}, Env{Config: cfg})
	return func() (*CCResult, error) {
		color, stats, err := run()
		if err != nil {
			return nil, err
		}
		return &CCResult{Color: color, Stats: stats}, nil
	}
}

// hashMinPregel is the (cc, pregel) matrix row over integer labels
// (see integers), dense or bit-packed by env.PackedState.
func hashMinPregel(g *graph.Graph, _ Args, env Env) func() ([]VertexID, *bsp.Stats, error) {
	if g.Directed {
		return refuseDirected[VertexID](plan.EnginePregel)
	}
	ecfg := pregelConfig[VertexID](env)
	if !env.NoCombiner {
		ecfg.Combiner = func(a, b VertexID) VertexID { return min(a, b) }
	}
	if env.PackedState {
		prog := &hashMinPacked{labels: NewPackedInts(g.N(), uint64(max(g.N(), 1)))}
		eng := pregel.NewEngine[struct{}, VertexID](g, prog, ecfg)
		return runLabels(eng, func(v int, _ struct{}) VertexID { return prog.label(VertexID(v)) })
	}
	eng := pregel.NewEngine[hashMinValue, VertexID](g, hashMinProgram{}, ecfg)
	return runLabels(eng, func(_ int, val hashMinValue) VertexID { return val.min })
}

// runLabels runs eng and reads each vertex's label through label.
func runLabels[V any](eng *pregel.Engine[V, VertexID], label func(v int, val V) VertexID) func() ([]VertexID, *bsp.Stats, error) {
	return func() ([]VertexID, *bsp.Stats, error) {
		res, err := eng.Run()
		color := make([]VertexID, len(res.Values))
		for v, val := range res.Values {
			color[v] = label(v, val)
		}
		return color, res.Stats, err
	}
}
