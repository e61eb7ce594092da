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
	colStep(ctx, ctx.Value(), msgs)
}

func (p *colProgram) StateUnits(v *colValue) int64 { return 3 }

// colStep is one coloring superstep at ctx's vertex, whose state is v,
// in the micro-phase the master published. Both the dense program (v
// is the engine's value) and the packed one (v is loaded from its
// stores) run this body.
func colStep[V any](ctx *pregel.Context[V, colMsg], v *colValue, msgs []colMsg) {
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

// colPacked is Luby coloring over bit-packed state
// (Config.PackedState): colValue's {color, tentative, blockedPhase}
// triple lives in three stores and the engine's value array is empty.
// Colors are bounded by Δ+1 — a vertex left uncolored after a phase has
// a neighbor that won that phase's color, and it has at most Δ
// neighbors to lose to — so color and blockedPhase (stored +1, with 0
// meaning -1) fit in ⌈log₂(Δ+3)⌉ bits and tentative in one. Each
// superstep loads the triple, runs colStep and stores back the fields
// that changed; ctx.Rand() is per-(vertex, superstep), so the coin
// flips, and the whole run, match the dense program's.
type colPacked struct {
	colProgram
	color, tent, blocked StateStore
}

func newColPacked(g *graph.Graph) *colPacked {
	n := g.N()
	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, g.Degree(VertexID(v)))
	}
	domain := uint64(maxDeg) + 3 // colors in [0, Δ+1], stored +1, plus "none"
	return &colPacked{
		color:   NewPackedInts(n, domain),
		tent:    NewPackedInts(n, 2),
		blocked: NewPackedInts(n, domain),
	}
}

func (p *colPacked) Init(g *graph.Graph, id VertexID) struct{} { return struct{}{} }

func (p *colPacked) Compute(ctx *pregel.Context[struct{}, colMsg], msgs []colMsg) {
	id := int(ctx.ID())
	old := colValue{
		color:        int(p.color.Get(id)) - 1,
		tentative:    p.tent.Get(id) == 1,
		blockedPhase: int(p.blocked.Get(id)) - 1,
	}
	v := old
	colStep(ctx, &v, msgs)
	if v.color != old.color {
		p.color.Set(id, uint64(v.color+1))
	}
	if v.tentative != old.tentative {
		p.tent.Set(id, 1-p.tent.Get(id)) // a one-bit flag that moved flips
	}
	if v.blockedPhase != old.blockedPhase {
		p.blocked.Set(id, uint64(v.blockedPhase+1))
	}
}

func (p *colPacked) StateUnits(v *struct{}) int64 { return 3 }

// colPackedSnap is one checkpoint generation: the stores plus the
// master's snapshot.
type colPackedSnap struct {
	color, tent, blocked StateStore
	master               any
}

func (s colPackedSnap) SizeBytes() int {
	return s.color.SizeBytes() + s.tent.SizeBytes() + s.blocked.SizeBytes()
}

// Snapshot/Restore implement pregel.Snapshotter. The dense program
// snapshots only its master counters (checkpointing.go), since the
// engine saves its vertex values; the packed one saves its stores too.
func (p *colPacked) Snapshot() any {
	return colPackedSnap{p.color.Clone(), p.tent.Clone(), p.blocked.Clone(), p.colProgram.Snapshot()}
}

func (p *colPacked) Restore(s any) {
	snap := s.(colPackedSnap)
	p.color.CopyFrom(snap.color)
	p.tent.CopyFrom(snap.tent)
	p.blocked.CopyFrom(snap.blocked)
	p.colProgram.Restore(snap.master)
}

// ColoringMIS colors the graph with Luby-MIS phases. The result is
// deterministic for a given Config.Seed.
func ColoringMIS(g *graph.Graph, cfg Config) (*ColoringResult, error) {
	if cfg.PackedState {
		prog := newColPacked(g)
		return runColoring(g, prog, &prog.colProgram, cfg, func(v int, _ *struct{}) int { return int(prog.color.Get(v)) - 1 })
	}
	prog := &colProgram{}
	return runColoring(g, prog, prog, cfg, func(_ int, val *colValue) int { return val.color })
}

// runColoring runs prog, whose master is m, and reads each vertex's
// color through color.
func runColoring[V any](g *graph.Graph, prog pregel.Program[V, colMsg], m *colProgram, cfg Config, color func(v int, val *V) int) (*ColoringResult, error) {
	eng := pregel.NewEngine[V, colMsg](g, prog, pregelConfig[colMsg](Env{Config: cfg}))
	eng.RegisterAggregator("uncolored", pregel.SumInt64())
	eng.RegisterAggregator("remaining", pregel.SumInt64())
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &ColoringResult{Colors: make([]int, g.N()), K: m.c + 1, Stats: res.Stats}
	for v := range res.Values {
		out.Colors[v] = color(v, &res.Values[v])
	}
	if g.N() == 0 {
		out.K = 0
	}
	return out, nil
}
