package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Betweenness centrality on unweighted graphs (Table 1 row 15): the
// BSP formulation of Brandes' algorithm (Redekopp et al.): per source,
// a forward BFS wave computes levels and shortest-path counts σ (and,
// as the wave passes, each vertex counts its successors), then a
// backward accumulation wave propagates the dependencies δ from the
// BFS leaves toward the source: a vertex broadcasts its (σ, δ) as soon
// as all of its successors have contributed. Work is O(m+n) per source
// — matching Brandes — but the two waves take Θ(δ) supersteps each,
// which is what disqualifies the algorithm from BPPA.

// BetweennessResult holds centrality scores (Brandes' convention, no
// endpoints, each unordered pair contributing from both directions on
// undirected graphs — identical to the internal/seq baseline).
type BetweennessResult struct {
	BC    []float64
	Stats *bsp.Stats
}

type bcValue struct {
	dist    int32
	sigma   float64
	delta   float64
	pending int32 // successors that have not yet contributed
	done    bool  // backward broadcast sent
}

type bcMsg struct {
	Level int32
	Sigma float64
	Delta float64
}

const (
	bcForward = iota
	bcBackward
)

type bcProgram struct {
	src VertexID
	// master state
	mode int
}

func (p *bcProgram) Init(g *graph.Graph, id VertexID) bcValue {
	if id == p.src {
		return bcValue{dist: 0, sigma: 1}
	}
	return bcValue{dist: -1}
}

func (p *bcProgram) BeforeSuperstep(mc *pregel.MasterContext) {
	if p.mode == bcForward && mc.Superstep() > 0 && mc.ActiveFrontier() == 0 {
		// No vertex is queued to compute: the wave has died out (every
		// settler broadcasts, so an empty worklist means nothing
		// settled last superstep). Switch to backward accumulation and
		// wake everyone once so the BFS leaves (pending == 0) can
		// fire; everything after that is message-driven, and the
		// engine stops when the deltas have drained into the source.
		p.mode = bcBackward
		mc.ActivateAll()
	}
	mc.SetGlobal("mode", p.mode)
}

func (p *bcProgram) Compute(ctx *pregel.Context[bcValue, bcMsg], msgs []bcMsg) {
	v := ctx.Value()
	defer ctx.VoteToHalt()
	if ctx.Global("mode").(int) == bcForward {
		s := int32(ctx.Superstep())
		if s == 0 {
			if ctx.ID() == p.src {
				ctx.SendToNeighbors(bcMsg{Level: 0, Sigma: 1})
			}
			return
		}
		if v.dist == -1 {
			var sigma float64
			for _, m := range msgs {
				if m.Level == s-1 {
					sigma += m.Sigma
				}
			}
			if sigma == 0 {
				return
			}
			v.dist = s
			v.sigma = sigma
			ctx.SendToNeighbors(bcMsg{Level: s, Sigma: sigma})
			return
		}
		// Already settled: broadcasts from the next level reveal this
		// vertex's successor count.
		for _, m := range msgs {
			if m.Level == v.dist+1 {
				v.pending++
			}
		}
		return
	}
	// Backward: accept contributions from successors; fire once all of
	// them (possibly zero, for BFS leaves) have reported.
	if v.dist == -1 || v.done {
		return
	}
	for _, m := range msgs {
		if m.Level == v.dist+1 {
			v.delta += v.sigma / m.Sigma * (1 + m.Delta)
			v.pending--
		}
	}
	if v.pending == 0 {
		v.done = true
		if v.dist > 0 {
			ctx.SendToNeighbors(bcMsg{Level: v.dist, Sigma: v.sigma, Delta: v.delta})
		}
	}
}

func (p *bcProgram) StateUnits(v *bcValue) int64 { return 4 }

// --- Superstep sharing (Redekopp et al. [18], named in the paper's §1) ---
//
// Running the K sources one engine run at a time costs Σ_s 2δ_s
// supersteps and pays the per-superstep synchronization K times over.
// Superstep sharing batches all K computations into ONE run: messages
// and per-vertex state are tagged by source index, so every superstep
// advances all K waves at once and the run takes max_s 2δ_s supersteps.

type bcBatchValue struct {
	dist    []int32
	sigma   []float64
	delta   []float64
	pending []int32
	done    []bool
}

type bcBatchMsg struct {
	Src   int16
	Level int32
	Sigma float64
	Delta float64
}

type bcBatchProgram struct {
	sources []VertexID
	mode    int
}

func (p *bcBatchProgram) Init(g *graph.Graph, id VertexID) bcBatchValue {
	k := len(p.sources)
	v := bcBatchValue{
		dist:    make([]int32, k),
		sigma:   make([]float64, k),
		delta:   make([]float64, k),
		pending: make([]int32, k),
		done:    make([]bool, k),
	}
	for i, s := range p.sources {
		if s == id {
			v.dist[i] = 0
			v.sigma[i] = 1
		} else {
			v.dist[i] = -1
		}
	}
	return v
}

func (p *bcBatchProgram) BeforeSuperstep(mc *pregel.MasterContext) {
	// Same worklist-driven switch as bcProgram: an empty frontier means
	// every one of the K shared waves died out last superstep.
	if p.mode == bcForward && mc.Superstep() > 0 && mc.ActiveFrontier() == 0 {
		p.mode = bcBackward
		mc.ActivateAll()
	}
	mc.SetGlobal("mode", p.mode)
}

func (p *bcBatchProgram) Compute(ctx *pregel.Context[bcBatchValue, bcBatchMsg], msgs []bcBatchMsg) {
	v := ctx.Value()
	defer ctx.VoteToHalt()
	if ctx.Global("mode").(int) == bcForward {
		s := int32(ctx.Superstep())
		if s == 0 {
			for i := range p.sources {
				if v.dist[i] == 0 {
					ctx.SendToNeighbors(bcBatchMsg{Src: int16(i), Level: 0, Sigma: 1})
				}
			}
			return
		}
		var sigma []float64
		for _, m := range msgs {
			if v.dist[m.Src] == -1 && m.Level == s-1 {
				if sigma == nil {
					sigma = make([]float64, len(p.sources))
				}
				sigma[m.Src] += m.Sigma
			} else if v.dist[m.Src] != -1 && m.Level == v.dist[m.Src]+1 {
				v.pending[m.Src]++
			}
		}
		for i := range sigma {
			if sigma[i] > 0 {
				v.dist[i] = s
				v.sigma[i] = sigma[i]
				ctx.SendToNeighbors(bcBatchMsg{Src: int16(i), Level: s, Sigma: sigma[i]})
			}
		}
		return
	}
	for _, m := range msgs {
		if v.dist[m.Src] != -1 && m.Level == v.dist[m.Src]+1 {
			v.delta[m.Src] += v.sigma[m.Src] / m.Sigma * (1 + m.Delta)
			v.pending[m.Src]--
		}
	}
	for i := range p.sources {
		if v.dist[i] != -1 && !v.done[i] && v.pending[i] == 0 {
			v.done[i] = true
			if v.dist[i] > 0 {
				ctx.SendToNeighbors(bcBatchMsg{Src: int16(i), Level: v.dist[i], Sigma: v.sigma[i], Delta: v.delta[i]})
			}
		}
	}
}

func (p *bcBatchProgram) StateUnits(v *bcBatchValue) int64 { return int64(4 * len(v.dist)) }

// BetweennessShared computes the same centrality as Betweenness but
// with superstep sharing: all sources advance in one engine run,
// cutting the superstep count from Σ_s 2δ_s to max_s 2δ_s at the price
// of K-fold per-vertex state (the classic latency/memory trade).
func BetweennessShared(g *graph.Graph, sources []VertexID, cfg Config) (*BetweennessResult, error) {
	n := g.N()
	if sources == nil {
		sources = make([]VertexID, n)
		for i := range sources {
			sources[i] = VertexID(i)
		}
	}
	if len(sources) > 1<<15 {
		return nil, errTooManySources
	}
	prog := &bcBatchProgram{sources: sources}
	eng := pregel.NewEngine[bcBatchValue, bcBatchMsg](g, prog, pregelConfig[bcBatchMsg](Env{Config: cfg}))
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &BetweennessResult{BC: make([]float64, n), Stats: res.Stats}
	for v, val := range res.Values {
		for i, s := range sources {
			if VertexID(v) != s && val.dist[i] != -1 {
				out.BC[v] += val.delta[i]
			}
		}
	}
	return out, nil
}

// Betweenness accumulates betweenness centrality from the given
// sources (nil = all vertices), one forward+backward engine run per
// source, exactly mirroring the per-source structure of Brandes.
func Betweenness(g *graph.Graph, sources []VertexID, cfg Config) (*BetweennessResult, error) {
	n := g.N()
	if sources == nil {
		sources = make([]VertexID, n)
		for i := range sources {
			sources[i] = VertexID(i)
		}
	}
	out := &BetweennessResult{BC: make([]float64, n)}
	var parts []*bsp.Stats
	for _, s := range sources {
		prog := &bcProgram{src: s}
		eng := pregel.NewEngine[bcValue, bcMsg](g, prog, pregelConfig[bcMsg](Env{Config: cfg}))
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		for v, val := range res.Values {
			if VertexID(v) != s && val.dist != -1 {
				out.BC[v] += val.delta
			}
		}
		parts = append(parts, res.Stats)
	}
	out.Stats = MergeStats(parts...)
	return out, nil
}
