package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	"vcgraph/internal/seq"
)

// Strong simulation (Table 1 row 20), after Fard et al. / Ma et al.:
// first compute the maximum dual simulation globally, then every
// candidate center w gathers its ball of radius diameter(Q) by flooding
// edge and match-set records outward for d_Q rounds, and locally
// re-runs dual-simulation refinement inside the ball; w matches iff it
// survives in the ball-local relation. The multi-hop neighborhood
// collection is exactly the communication/memory blow-up the paper
// flags for subgraph-flavored workloads in the vertex-centric model
// (§3.8): message and state volume grow with ball sizes, not degrees.

// StrongSimResult holds the strong-simulation output: Centers[w] is
// true iff the ball around w admits a dual simulation of Q containing
// w, plus the global dual relation used for pruning.
type StrongSimResult struct {
	Centers []bool
	Dual    []uint64
	Stats   *bsp.Stats
}

type ssRecord struct {
	IsEdge bool
	A, B   VertexID // directed edge A->B, or vertex A
	Set    uint64   // vertex record: A's dual matchSet
}

type ssValue struct {
	records map[ssRecord]bool
	fresh   []ssRecord
	center  bool
}

type ssMsg struct {
	Recs []ssRecord
}

type ssProgram struct {
	q    *graph.Graph
	dq   int
	dual []uint64
}

func (p *ssProgram) Init(g *graph.Graph, id VertexID) ssValue {
	v := ssValue{records: make(map[ssRecord]bool)}
	self := ssRecord{A: id, Set: p.dual[id]}
	v.records[self] = true
	v.fresh = append(v.fresh, self)
	for _, e := range g.Out[id] {
		r := ssRecord{IsEdge: true, A: id, B: e.Dst}
		v.records[r] = true
		v.fresh = append(v.fresh, r)
	}
	return v
}

func (p *ssProgram) Compute(ctx *pregel.Context[ssValue, ssMsg], msgs []ssMsg) {
	v := ctx.Value()
	s := ctx.Superstep()
	if s < p.dq {
		// Flood rounds: absorb incoming records, forward only the new
		// ones (delta flooding), over the undirected neighborhood.
		var next []ssRecord
		for _, m := range msgs {
			for _, r := range m.Recs {
				ctx.Charge(1)
				if !v.records[r] {
					v.records[r] = true
					next = append(next, r)
				}
			}
		}
		if s > 0 {
			v.fresh = next
		}
		if len(v.fresh) > 0 {
			out := ssMsg{Recs: v.fresh}
			sent := make(map[VertexID]bool)
			for _, e := range ctx.OutEdges() {
				if !sent[e.Dst] {
					sent[e.Dst] = true
					ctx.SendTo(e.Dst, out)
					ctx.Charge(int64(len(v.fresh)))
				}
			}
			for _, e := range ctx.InEdges() {
				if !sent[e.Dst] {
					sent[e.Dst] = true
					ctx.SendTo(e.Dst, out)
					ctx.Charge(int64(len(v.fresh)))
				}
			}
		}
		return // stay active: every vertex runs the final evaluation step
	}
	// Final superstep: absorb the last wave, then evaluate locally.
	for _, m := range msgs {
		for _, r := range m.Recs {
			ctx.Charge(1)
			v.records[r] = true
		}
	}
	if p.dual[ctx.ID()] != 0 {
		v.center = p.evaluateBall(ctx)
	}
	v.fresh = nil
	ctx.VoteToHalt()
}

// evaluateBall rebuilds the collected neighborhood, restricts it to the
// ball of radius dq around this vertex, and runs dual-simulation
// refinement inside it.
func (p *ssProgram) evaluateBall(ctx *pregel.Context[ssValue, ssMsg]) bool {
	v := ctx.Value()
	// Local BFS over the undirected skeleton of collected edges.
	und := make(map[VertexID][]VertexID)
	for r := range v.records {
		if r.IsEdge {
			und[r.A] = append(und[r.A], r.B)
			und[r.B] = append(und[r.B], r.A)
			ctx.Charge(1)
		}
	}
	dist := map[VertexID]int{ctx.ID(): 0}
	queue := []VertexID{ctx.ID()}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == p.dq {
			continue
		}
		for _, w := range und[u] {
			ctx.Charge(1)
			if _, ok := dist[w]; !ok {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	// Ball-restricted relation and directed adjacency.
	sets := make(map[VertexID]uint64)
	for r := range v.records {
		if !r.IsEdge {
			if _, ok := dist[r.A]; ok {
				sets[r.A] = r.Set
			}
		}
	}
	out := make(map[VertexID][]VertexID)
	in := make(map[VertexID][]VertexID)
	for r := range v.records {
		if r.IsEdge {
			if _, ok := dist[r.A]; !ok {
				continue
			}
			if _, ok := dist[r.B]; !ok {
				continue
			}
			out[r.A] = append(out[r.A], r.B)
			in[r.B] = append(in[r.B], r.A)
		}
	}
	// Dual refinement to fixpoint inside the ball.
	for changed := true; changed; {
		changed = false
		for u, set := range sets {
			for qi := 0; qi < p.q.N(); qi++ {
				bit := uint64(1) << uint(qi)
				if set&bit == 0 {
					continue
				}
				ok := true
				for _, qe := range p.q.Out[qi] {
					ctx.Charge(1)
					found := false
					for _, w := range out[u] {
						if sets[w]&(1<<uint(qe.Dst)) != 0 {
							found = true
							break
						}
					}
					if !found {
						ok = false
						break
					}
				}
				if ok {
					for _, qe := range p.q.In[qi] {
						ctx.Charge(1)
						found := false
						for _, w := range in[u] {
							if sets[w]&(1<<uint(qe.Dst)) != 0 {
								found = true
								break
							}
						}
						if !found {
							ok = false
							break
						}
					}
				}
				if !ok {
					set &^= bit
					changed = true
				}
			}
			sets[u] = set
		}
	}
	return sets[ctx.ID()] != 0
}

func (p *ssProgram) StateUnits(v *ssValue) int64 { return int64(1 + len(v.records)) }

// StrongSimulation computes the strong-simulation match centers of
// query q in data graph g. It chains a DualSimulation run with the
// ball-gathering run and merges their statistics.
func StrongSimulation(g, q *graph.Graph, cfg Config) (*StrongSimResult, error) {
	if err := checkSimInputs(g, q); err != nil {
		return nil, err
	}
	dualRes, err := DualSimulation(g, q, cfg)
	if err != nil {
		return nil, err
	}
	dq := int(seq.QueryDiameter(q))
	prog := &ssProgram{q: q, dq: dq, dual: dualRes.Match}
	eng := pregel.NewEngine[ssValue, ssMsg](g, prog, pregelConfig[ssMsg](Env{Config: cfg}))
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &StrongSimResult{
		Centers: make([]bool, g.N()),
		Dual:    dualRes.Match,
		Stats:   MergeStats(dualRes.Stats, res.Stats),
	}
	for v, val := range res.Values {
		out.Centers[v] = val.center
	}
	return out, nil
}
