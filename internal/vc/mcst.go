package vc

import (
	"sort"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Minimum cost spanning tree (Table 1 row 11): the vertex-centric
// Boruvka of Salihoglu & Widom. Each Boruvka iteration runs the three
// phases of §3.5 — Min-Edge-Picking, Super-vertex Finding (mutual-pick
// cycle detection + simple pointer jumping), and
// Edge-Cleaning-and-Relabeling (sub-vertices ship their relabeled edge
// lists to their super-vertex, which keeps the lightest edge per
// neighbor) — and halves the number of live vertices, so there are
// O(log n) iterations of O(δ) supersteps each. Super-vertices receive
// entire merged edge lists, far more than d(v) messages: the workload
// imbalance that disqualifies the algorithm from BPPA.

// MCSTResult holds the minimum spanning forest found by vertex-centric
// Boruvka.
type MCSTResult struct {
	Edges  []graph.UndirectedEdge
	Weight float64
	Stats  *bsp.Stats
}

const (
	mcstPick = iota
	mcstCycle
	mcstJumpReq
	mcstJumpReply
	mcstExchange
	mcstRelabel
	mcstMerge
)

const (
	mcPing int8 = iota
	mcJReq
	mcJRep
	mcSuper
	mcEdge
)

type mcstEdge struct {
	Dst          VertexID // neighbor in the current contracted graph
	W            float64
	OrigU, OrigV VertexID
}

type mcstMsg struct {
	Kind    int8
	From    VertexID
	Pointer VertexID
	IsRoot  bool
	Super   VertexID
	Edge    mcstEdge
}

type pickedEdge struct {
	U, V VertexID
	W    float64
}

type mcstValue struct {
	done    bool
	edges   []mcstEdge
	pointer VertexID
	isRoot  bool
	settled bool
	super   VertexID
}

type mcstProgram struct {
	phase  int
	picked []pickedEdge
}

func (p *mcstProgram) Init(g *graph.Graph, id VertexID) mcstValue {
	v := mcstValue{pointer: id, super: id}
	for _, e := range g.Out[id] {
		v.edges = append(v.edges, mcstEdge{Dst: e.Dst, W: e.W, OrigU: id, OrigV: e.Dst})
	}
	return v
}

func (p *mcstProgram) BeforeSuperstep(mc *pregel.MasterContext) {
	if mc.Superstep() > 0 {
		if picks, ok := mc.Agg("picked").([]pickedEdge); ok {
			p.picked = append(p.picked, picks...)
		}
		switch p.phase {
		case mcstPick:
			p.phase = mcstCycle
		case mcstCycle:
			p.phase = mcstJumpReq
		case mcstJumpReq:
			if unsettled, _ := mc.Agg("unsettled").(int64); unsettled == 0 {
				p.phase = mcstExchange
			} else {
				p.phase = mcstJumpReply
			}
		case mcstJumpReply:
			p.phase = mcstJumpReq
		case mcstExchange:
			p.phase = mcstRelabel
		case mcstRelabel:
			p.phase = mcstMerge
		case mcstMerge:
			if live, _ := mc.Agg("live").(int64); live == 0 {
				mc.Halt()
				return
			}
			p.phase = mcstPick
		}
	}
	mc.SetGlobal("phase", p.phase)
}

func (p *mcstProgram) Compute(ctx *pregel.Context[mcstValue, mcstMsg], msgs []mcstMsg) {
	v := ctx.Value()
	if v.done {
		return
	}
	switch ctx.Global("phase").(int) {
	case mcstPick:
		ctx.Charge(int64(len(v.edges)))
		if len(v.edges) == 0 {
			v.done = true // finished component (or isolated vertex)
			return
		}
		best := v.edges[0]
		for _, e := range v.edges[1:] {
			if e.W < best.W || (e.W == best.W && e.Dst < best.Dst) {
				best = e
			}
		}
		v.pointer = best.Dst
		v.isRoot = false
		v.settled = false
		v.super = graph.NoVertex
		u, w := best.OrigU, best.OrigV
		if u > w {
			u, w = w, u
		}
		ctx.Aggregate("picked", pickedEdge{U: u, V: w, W: best.W})
		ctx.SendTo(v.pointer, mcstMsg{Kind: mcPing, From: ctx.ID()})
	case mcstCycle:
		for _, m := range msgs {
			if m.Kind == mcPing && m.From == v.pointer && ctx.ID() < v.pointer {
				// Mutual pick: the smaller endpoint becomes the super-vertex.
				v.isRoot = true
				v.pointer = ctx.ID()
				v.super = ctx.ID()
				v.settled = true
			}
		}
	case mcstJumpReq:
		for _, m := range msgs {
			if m.Kind != mcJRep {
				continue
			}
			if m.IsRoot {
				v.super = v.pointer
				v.settled = true
			} else {
				v.pointer = m.Pointer
			}
		}
		if !v.settled {
			ctx.SendTo(v.pointer, mcstMsg{Kind: mcJReq, From: ctx.ID()})
			ctx.Aggregate("unsettled", int64(1))
		}
	case mcstJumpReply:
		for _, m := range msgs {
			if m.Kind == mcJReq {
				ctx.SendTo(m.From, mcstMsg{Kind: mcJRep, Pointer: v.pointer, IsRoot: v.isRoot})
			}
		}
	case mcstExchange:
		for _, e := range v.edges {
			ctx.SendTo(e.Dst, mcstMsg{Kind: mcSuper, From: ctx.ID(), Super: v.super})
		}
	case mcstRelabel:
		superOf := make(map[VertexID]VertexID, len(msgs))
		for _, m := range msgs {
			if m.Kind == mcSuper {
				superOf[m.From] = m.Super
			}
		}
		ctx.Charge(int64(len(v.edges)))
		kept := v.edges[:0]
		for _, e := range v.edges {
			e.Dst = superOf[e.Dst]
			if e.Dst == v.super {
				continue // self-loop after contraction
			}
			kept = append(kept, e)
		}
		v.edges = kept
		if !v.isRoot {
			for _, e := range v.edges {
				ctx.SendTo(v.super, mcstMsg{Kind: mcEdge, Edge: e})
			}
			v.edges = nil
			v.done = true
		}
	case mcstMerge:
		if !v.isRoot {
			return
		}
		lightest := make(map[VertexID]mcstEdge, len(v.edges)+len(msgs))
		add := func(e mcstEdge) {
			cur, ok := lightest[e.Dst]
			if !ok || e.W < cur.W || (e.W == cur.W && (e.OrigU < cur.OrigU || (e.OrigU == cur.OrigU && e.OrigV < cur.OrigV))) {
				lightest[e.Dst] = e
			}
		}
		for _, e := range v.edges {
			add(e)
		}
		for _, m := range msgs {
			if m.Kind == mcEdge {
				add(m.Edge)
			}
		}
		v.edges = v.edges[:0]
		for _, e := range lightest {
			v.edges = append(v.edges, e)
		}
		sort.Slice(v.edges, func(i, j int) bool { return v.edges[i].Dst < v.edges[j].Dst })
		ctx.Charge(int64(len(v.edges)))
		if len(v.edges) == 0 {
			v.done = true
			return
		}
		ctx.Aggregate("live", int64(1))
	}
}

func (p *mcstProgram) StateUnits(v *mcstValue) int64 { return int64(4 + len(v.edges)) }

// MCST computes a minimum spanning forest of a weighted undirected
// graph with vertex-centric Boruvka. Ties are broken by destination and
// original edge IDs, so the result is deterministic; with distinct
// weights it is the unique MST.
func MCST(g *graph.Graph, cfg Config) (*MCSTResult, error) {
	prog := &mcstProgram{}
	ecfg := pregelConfig[mcstMsg](Env{Config: cfg})
	if ecfg.MaxSupersteps == 0 {
		ecfg.MaxSupersteps = 1 + 40*(bitsLen(g.N())+2)*(bitsLen(g.N())+2)
	}
	eng := pregel.NewEngine[mcstValue, mcstMsg](g, prog, ecfg)
	eng.RegisterAggregator("picked", pregel.Collect[pickedEdge]())
	eng.RegisterAggregator("unsettled", pregel.SumInt64())
	eng.RegisterAggregator("live", pregel.SumInt64())
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	// Mutual picks report the same edge twice: deduplicate.
	seen := make(map[[2]VertexID]bool, len(prog.picked))
	out := &MCSTResult{Stats: res.Stats}
	for _, pe := range prog.picked {
		k := [2]VertexID{pe.U, pe.V}
		if seen[k] {
			continue
		}
		seen[k] = true
		out.Edges = append(out.Edges, graph.UndirectedEdge{U: pe.U, V: pe.V, W: pe.W})
		out.Weight += pe.W
	}
	sort.Slice(out.Edges, func(i, j int) bool {
		if out.Edges[i].U != out.Edges[j].U {
			return out.Edges[i].U < out.Edges[j].U
		}
		return out.Edges[i].V < out.Edges[j].V
	})
	return out, nil
}

// bitsLen returns the bit length of n (≈ log2 n + 1).
func bitsLen(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}
