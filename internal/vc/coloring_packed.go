package vc

import (
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Packed-state Luby-MIS coloring (Config.PackedState): colValue's
// {color, tentative, blockedPhase} triple moves into three bit-packed
// stores. Colors are bounded by Δ+1 — a vertex left uncolored after a
// phase has a neighbor that won that phase's color, and it has at most
// Δ neighbors to lose to — so color and blockedPhase (stored +1, with
// 0 meaning "none") fit in ⌈log₂(Δ+3)⌉ bits and tentative in one.
// Phase sequencing, randomized selection, aggregation, and adjacency
// pruning are byte-for-byte the dense program's (ctx.Rand() is
// per-(vertex, superstep), so the coin flips agree too).

type colPackedProgram struct {
	phase int // master: superstep micro-phase
	c     int // master: current color
	// color and blocked hold the dense fields shifted by +1 so the
	// zero value means the dense -1.
	color   StateStore
	tent    StateStore
	blocked StateStore
}

func newColPackedProgram(g *graph.Graph) *colPackedProgram {
	n := g.N()
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := g.Degree(VertexID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	domain := uint64(maxDeg) + 3 // colors in [0, Δ+1], stored +1, plus "none"
	return &colPackedProgram{
		color:   NewPackedInts(n, domain),
		tent:    NewPackedInts(n, 2),
		blocked: NewPackedInts(n, domain),
	}
}

func (p *colPackedProgram) Init(g *graph.Graph, id VertexID) struct{} { return struct{}{} }

func (p *colPackedProgram) BeforeSuperstep(mc *pregel.MasterContext) {
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

func (p *colPackedProgram) Compute(ctx *pregel.Context[struct{}, colMsg], msgs []colMsg) {
	id := int(ctx.ID())
	if int(p.color.Get(id))-1 >= 0 {
		return
	}
	c := ctx.Global("color").(int)
	switch ctx.Global("phase").(int) {
	case colTent:
		p.tent.Set(id, 0)
		if int(p.blocked.Get(id))-1 == c {
			return
		}
		d := ctx.OutDegree()
		if d == 0 {
			p.color.Set(id, uint64(c+1)) // trivial MIS: isolated (or everything around is colored)
			return
		}
		if ctx.Rand().Float64() < 1/(2*float64(d)) {
			p.tent.Set(id, 1)
			ctx.SendToNeighbors(colMsg{Kind: colMsgTent, From: ctx.ID()})
		}
	case colResolve:
		if p.tent.Get(id) == 0 {
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
			p.color.Set(id, uint64(c+1))
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
				p.blocked.Set(id, uint64(c+1))
			}
		}
		ctx.Aggregate("uncolored", int64(1))
		if int(p.blocked.Get(id))-1 != c {
			ctx.Aggregate("remaining", int64(1))
		}
	}
}

func (p *colPackedProgram) StateUnits(v *struct{}) int64 { return 3 }

// colPackedSnap is one checkpoint generation: the stores plus the
// master phase counters.
type colPackedSnap struct {
	color, tent, blocked StateStore
	phase, c             int
}

func (s colPackedSnap) SizeBytes() int {
	return s.color.SizeBytes() + s.tent.SizeBytes() + s.blocked.SizeBytes()
}

// Snapshot/Restore implement pregel.Snapshotter. The dense program
// snapshots only phase and color (checkpointing.go): the engine saves
// its vertex values. The packed variant keeps vertex state in stores
// outside the values, so it checkpoints those stores as well.
func (p *colPackedProgram) Snapshot() any {
	return colPackedSnap{
		color:   p.color.Clone(),
		tent:    p.tent.Clone(),
		blocked: p.blocked.Clone(),
		phase:   p.phase,
		c:       p.c,
	}
}

func (p *colPackedProgram) Restore(s any) {
	if s == nil {
		for _, st := range []StateStore{p.color, p.tent, p.blocked} {
			for i := 0; i < st.Len(); i++ {
				st.Set(i, 0)
			}
		}
		p.phase, p.c = 0, 0
		return
	}
	snap := s.(colPackedSnap)
	p.color.CopyFrom(snap.color)
	p.tent.CopyFrom(snap.tent)
	p.blocked.CopyFrom(snap.blocked)
	p.phase, p.c = snap.phase, snap.c
}
