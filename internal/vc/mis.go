package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Standalone maximal independent set by Luby's algorithm — the
// primitive inside Table 1 row 12's coloring, exposed directly:
// expected O(log n) rounds of tentative-selection (probability
// 1/(2d(v))), smallest-ID conflict resolution, and winner-neighborhood
// removal.

// MISResult flags the vertices in the maximal independent set.
type MISResult struct {
	InSet []bool
	Size  int
	Stats *bsp.Stats
}

const (
	misUndecided int8 = iota
	misIn
	misOut
)

type misValue struct {
	state     int8
	tentative bool
}

type misProgram struct {
	phase int // master: tent / resolve / cleanup cycle
}

func (p *misProgram) Init(g *graph.Graph, id VertexID) misValue { return misValue{} }

func (p *misProgram) BeforeSuperstep(mc *pregel.MasterContext) {
	if mc.Superstep() > 0 {
		switch p.phase {
		case colTent:
			p.phase = colResolve
		case colResolve:
			p.phase = colCleanup
		case colCleanup:
			if undecided, _ := mc.Agg("undecided").(int64); undecided == 0 {
				mc.Halt()
				return
			}
			p.phase = colTent
		}
	}
	mc.SetGlobal("phase", p.phase)
}

func (p *misProgram) Compute(ctx *pregel.Context[misValue, colMsg], msgs []colMsg) {
	v := ctx.Value()
	if v.state != misUndecided {
		return
	}
	switch ctx.Global("phase").(int) {
	case colTent:
		v.tentative = false
		d := ctx.OutDegree()
		if d == 0 {
			v.state = misIn // isolated: trivially in the MIS
			return
		}
		if ctx.Rand().Float64() < 1/(2*float64(d)) {
			v.tentative = true
			ctx.SendToNeighbors(colMsg{Kind: colMsgTent, From: ctx.ID()})
		}
	case colResolve:
		if !v.tentative {
			return
		}
		win := true
		for _, m := range msgs {
			if m.Kind == colMsgTent && m.From < ctx.ID() {
				win = false
				break
			}
		}
		if win {
			v.state = misIn
			ctx.SendToNeighbors(colMsg{Kind: colMsgWin, From: ctx.ID()})
		}
	case colCleanup:
		for _, m := range msgs {
			if m.Kind == colMsgWin {
				v.state = misOut // neighbor entered the set
				break
			}
		}
		if v.state == misUndecided {
			// Remove decided neighbors from the working adjacency so
			// future degrees reflect the shrinking candidate graph.
			winners := map[VertexID]bool{}
			for _, m := range msgs {
				if m.Kind == colMsgWin {
					winners[m.From] = true
				}
			}
			if len(winners) > 0 {
				adj := ctx.OutEdges()
				kept := make([]graph.Edge, 0, len(adj))
				for _, e := range adj {
					if !winners[e.Dst] {
						kept = append(kept, e)
					}
				}
				ctx.SetOutEdges(kept)
			}
			ctx.Aggregate("undecided", int64(1))
		}
	}
}

func (p *misProgram) StateUnits(v *misValue) int64 { return 1 }

// MaximalIndependentSet computes an MIS with Luby's algorithm,
// deterministic for a given Config.Seed.
func MaximalIndependentSet(g *graph.Graph, cfg Config) (*MISResult, error) {
	prog := &misProgram{}
	eng := pregel.NewEngine[misValue, colMsg](g, prog, pregelConfig[colMsg](Env{Config: cfg}))
	eng.RegisterAggregator("undecided", pregel.SumInt64())
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &MISResult{InSet: make([]bool, g.N()), Stats: res.Stats}
	for v, val := range res.Values {
		if val.state == misIn {
			out.InSet[v] = true
			out.Size++
		}
	}
	return out, nil
}
