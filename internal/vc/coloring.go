package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Graph coloring via Luby's maximal independent set (Table 1 row 12):
// each color phase extracts one MIS from the still-uncolored vertices
// with Luby's randomized selection — tentative with probability
// 1/(2d(v)), smallest-ID wins among adjacent tentatives — and colors
// it; neighbors of winners sit the rest of the phase out. K phases of
// expected O(log n) supersteps each: balanced but not BPPA.

// ColoringResult holds the vertex colors (0-based) and the number of
// colors used (the paper's K).
type ColoringResult struct {
	Colors []int
	K      int
	Stats  *bsp.Stats
}

const (
	colTent = iota
	colResolve
	colCleanup
)

const (
	colMsgTent int8 = iota
	colMsgWin
)

type colMsg struct {
	Kind int8
	From VertexID
}

type colValue struct {
	color        int
	tentative    bool
	blockedPhase int // the color phase this vertex is blocked for (-1 none)
}

type colProgram struct {
	phase int // master: superstep micro-phase
	c     int // master: current color
}

func (p *colProgram) Init(g *graph.Graph, id VertexID) colValue {
	return colValue{color: -1, blockedPhase: -1}
}

func (p *colProgram) BeforeSuperstep(mc *pregel.MasterContext) {
	if mc.Superstep() > 0 {
		switch p.phase {
		case colTent:
			p.phase = colResolve
		case colResolve:
			p.phase = colCleanup
		case colCleanup:
			uncolored, _ := mc.Agg("uncolored").(int64)
			remaining, _ := mc.Agg("remaining").(int64)
			if uncolored == 0 {
				mc.Halt()
				return
			}
			if remaining == 0 {
				p.c++ // the phase's MIS is maximal: next color
			}
			p.phase = colTent
		}
	}
	mc.SetGlobal("phase", p.phase)
	mc.SetGlobal("color", p.c)
}

func (p *colProgram) Compute(ctx *pregel.Context[colValue, colMsg], msgs []colMsg) {
	v := ctx.Value()
	if v.color >= 0 {
		return
	}
	c := ctx.Global("color").(int)
	switch ctx.Global("phase").(int) {
	case colTent:
		v.tentative = false
		if v.blockedPhase == c {
			return
		}
		d := ctx.OutDegree()
		if d == 0 {
			v.color = c // trivial MIS: isolated (or everything around is colored)
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
			v.color = c
			ctx.SendToNeighbors(colMsg{Kind: colMsgWin, From: ctx.ID()})
		}
	case colCleanup:
		if len(msgs) > 0 {
			winners := make(map[VertexID]bool, len(msgs))
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
				ctx.Charge(int64(len(adj)))
				ctx.SetOutEdges(kept)
				v.blockedPhase = c
			}
		}
		ctx.Aggregate("uncolored", int64(1))
		if v.blockedPhase != c {
			ctx.Aggregate("remaining", int64(1))
		}
	}
}

func (p *colProgram) StateUnits(v *colValue) int64 { return 3 }

// ColoringMIS colors the graph with Luby-MIS phases. The result is
// deterministic for a given Config.Seed.
func ColoringMIS(g *graph.Graph, cfg Config) (*ColoringResult, error) {
	ecfg := pregelConfig[colMsg](Env{Config: cfg})
	if cfg.PackedState {
		prog := newColPackedProgram(g)
		eng := pregel.NewEngine[struct{}, colMsg](g, prog, ecfg)
		eng.RegisterAggregator("uncolored", pregel.SumInt64())
		eng.RegisterAggregator("remaining", pregel.SumInt64())
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		out := &ColoringResult{Colors: make([]int, g.N()), K: prog.c + 1, Stats: res.Stats}
		for v := range res.Values {
			out.Colors[v] = int(prog.color.Get(v)) - 1
		}
		if g.N() == 0 {
			out.K = 0
		}
		return out, nil
	}
	prog := &colProgram{}
	eng := pregel.NewEngine[colValue, colMsg](g, prog, ecfg)
	eng.RegisterAggregator("uncolored", pregel.SumInt64())
	eng.RegisterAggregator("remaining", pregel.SumInt64())
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &ColoringResult{Colors: make([]int, g.N()), K: prog.c + 1, Stats: res.Stats}
	for v, val := range res.Values {
		out.Colors[v] = val.color
	}
	if g.N() == 0 {
		out.K = 0
	}
	return out, nil
}
