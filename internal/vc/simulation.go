package vc

import (
	"fmt"
	"math/bits"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Graph simulation and dual simulation (Table 1 rows 18, 19): the
// distributed vertex-centric pattern matching of Fard et al. Every data
// vertex keeps a matchSet of query nodes it may simulate; vertices
// exchange matchSets with their parents (and, for dual simulation,
// children), and re-evaluate the simulation conditions whenever a
// neighbor's set shrinks, until a global fixpoint. The relation
// computed is the maximum (dual) simulation, identical to the
// sequential Henzinger et al. / Ma et al. baselines.

// SimResult holds a simulation relation as bitmasks: Match[u] has bit q
// set iff query node q is simulated by data vertex u.
type SimResult struct {
	Match []uint64
	Stats *bsp.Stats
}

// Sim converts the bitmask representation to the [][]bool layout of the
// sequential baselines (sim[q][u]).
func (r *SimResult) Sim(nq int) [][]bool {
	sim := make([][]bool, nq)
	for q := 0; q < nq; q++ {
		sim[q] = make([]bool, len(r.Match))
		for u, m := range r.Match {
			sim[q][u] = m&(1<<uint(q)) != 0
		}
	}
	return sim
}

type simMsg struct {
	From VertexID
	Set  uint64
}

type simValue struct {
	set        uint64
	childSets  map[VertexID]uint64
	parentSets map[VertexID]uint64
}

type simProgram struct {
	q    *graph.Graph
	dual bool
}

func (p *simProgram) Init(g *graph.Graph, id VertexID) simValue {
	var set uint64
	for qi := 0; qi < p.q.N(); qi++ {
		if g.Label(id) == p.q.Label(VertexID(qi)) {
			set |= 1 << uint(qi)
		}
	}
	return simValue{set: set}
}

// evaluate re-checks the simulation conditions for every query node
// still in the vertex's matchSet and returns the shrunk set.
func (p *simProgram) evaluate(ctx *pregel.Context[simValue, simMsg], v *simValue) uint64 {
	set := v.set
	for qi := 0; qi < p.q.N(); qi++ {
		bit := uint64(1) << uint(qi)
		if set&bit == 0 {
			continue
		}
		ok := true
		for _, qe := range p.q.Out[qi] {
			ctx.Charge(1)
			found := false
			for _, ge := range ctx.OutEdges() {
				ctx.Charge(1)
				if v.childSets[ge.Dst]&(1<<uint(qe.Dst)) != 0 {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok && p.dual {
			for _, qe := range p.q.In[qi] {
				ctx.Charge(1)
				found := false
				for _, ge := range ctx.InEdges() {
					ctx.Charge(1)
					if v.parentSets[ge.Dst]&(1<<uint(qe.Dst)) != 0 {
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
		}
	}
	return set
}

func (p *simProgram) announce(ctx *pregel.Context[simValue, simMsg], set uint64) {
	m := simMsg{From: ctx.ID(), Set: set}
	// Parents evaluate child conditions, so children inform parents.
	for _, e := range ctx.InEdges() {
		ctx.SendTo(e.Dst, m)
	}
	if p.dual {
		for _, e := range ctx.OutEdges() {
			ctx.SendTo(e.Dst, m)
		}
	}
}

func (p *simProgram) Compute(ctx *pregel.Context[simValue, simMsg], msgs []simMsg) {
	v := ctx.Value()
	switch ctx.Superstep() {
	case 0:
		// Label matching done in Init; tell neighbors the initial sets.
		if v.childSets == nil {
			v.childSets = make(map[VertexID]uint64)
			v.parentSets = make(map[VertexID]uint64)
		}
		if v.set != 0 {
			p.announce(ctx, v.set)
		}
		return // stay active: every vertex evaluates at superstep 1
	default:
		for _, m := range msgs {
			// A message from an out-neighbor is a child set; from an
			// in-neighbor a parent set. A vertex can be both (2-cycle),
			// in which case the set is stored as both, which is exactly
			// what the conditions need.
			v.childSets[m.From] = m.Set
			if p.dual {
				v.parentSets[m.From] = m.Set
			}
		}
		newSet := p.evaluate(ctx, v)
		if newSet != v.set {
			v.set = newSet
			p.announce(ctx, v.set)
		}
		ctx.VoteToHalt()
	}
}

func (p *simProgram) StateUnits(v *simValue) int64 {
	return int64(1 + len(v.childSets) + len(v.parentSets) + bits.OnesCount64(v.set))
}

func checkSimInputs(g, q *graph.Graph) error {
	if !g.Directed || !q.Directed {
		return errNotDirected
	}
	if q.N() > 64 {
		return fmt.Errorf("vc: query has %d nodes; bitmask representation supports at most 64", q.N())
	}
	return nil
}

func runSim(g, q *graph.Graph, dual bool, cfg Config) (*SimResult, error) {
	if err := checkSimInputs(g, q); err != nil {
		return nil, err
	}
	g.EnsureIn()
	q.EnsureIn()
	prog := &simProgram{q: q, dual: dual}
	eng := pregel.NewEngine[simValue, simMsg](g, prog, pregelConfig[simMsg](Env{Config: cfg}))
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &SimResult{Match: make([]uint64, g.N()), Stats: res.Stats}
	for v, val := range res.Values {
		out.Match[v] = val.set
	}
	return out, nil
}

// GraphSimulation computes the maximum graph-simulation relation of
// query q in data graph g (both directed, vertex-labeled).
func GraphSimulation(g, q *graph.Graph, cfg Config) (*SimResult, error) {
	return runSim(g, q, false, cfg)
}

// DualSimulation additionally enforces the parent conditions of Ma et
// al., shrinking the relation to the maximum dual simulation.
func DualSimulation(g, q *graph.Graph, cfg Config) (*SimResult, error) {
	return runSim(g, q, true, cfg)
}
