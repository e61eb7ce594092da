package vc

import (
	"sort"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Shiloach–Vishkin connected components (Table 1 rows 4, 6, 10),
// following the Pregel formulation of Yan et al.: every vertex u keeps
// a pointer D[u] arranging the vertices into a forest; each round
// performs tree hooking, star hooking (both only onto smaller pointer
// values, keeping D monotonically decreasing) and shortcutting, in
// O(log n) rounds. Each round is a fixed 19-superstep message protocol:
//
//	0  GP_REQ      v asks D[v] for its pointer
//	1  GP_REPLY    parents answer
//	2  STAR_INIT   v learns gp=D[D[v]]; if gp≠D[v], falsify star at v, D[v], gp
//	3  STAR_NOTIFY falsifications land; v asks D[v] for its star flag
//	4  STAR_REPLY  parents answer
//	5  STAR_SET    v adopts parent's star flag; v sends D[v] to neighbors
//	6  TREE_HOOK   if D[v] is a root and a neighbor u has D[u]<D[v]: propose
//	7  HOOK_APPLY  roots apply the minimum proposal (records the hook edge)
//	8-13           star detection again (hooks changed the forest)
//	14 STAR_HOOK   vertices in stars propose hooks of their star root
//	15 HOOK_APPLY  roots apply
//	16 GP_REQ      shortcut query
//	17 GP_REPLY    parents answer
//	18 SHORTCUT    D[v] = D[D[v]]
//
// The master halts after the first round in which nothing changed. The
// algorithm is deliberately not BPPA: a root may receive far more than
// d(v) messages in a superstep — exactly the imbalance the paper
// describes — while the total per-superstep load stays O(m+n).

// SVResult holds the S-V output: component colors (the smallest vertex
// ID of each component, by the monotone-decrease invariant) and the
// hook edges, which form a spanning forest (Table 1 row 10).
type SVResult struct {
	Color     []VertexID
	TreeEdges []graph.UndirectedEdge
	Stats     *bsp.Stats
	snapshots [][]VertexID // per-round D forests when tracing
}

const svPhases = 19

const (
	svReq int8 = iota
	svReply
	svNotStar
	svStReq
	svStReply
	svDVal
	svHook
)

type svMsg struct {
	Kind         int8
	From         VertexID
	D            VertexID
	Star         bool
	EdgeU, EdgeV VertexID
}

type svValue struct {
	d    VertexID
	gp   VertexID
	star bool
}

type svProgram struct {
	trace bool
	// master state
	roundChanged bool
	edges        [][2]VertexID
	snapshots    [][]VertexID
}

func (p *svProgram) Init(g *graph.Graph, id VertexID) svValue {
	return svValue{d: id, gp: id}
}

func (p *svProgram) BeforeSuperstep(mc *pregel.MasterContext) {
	if mc.Superstep() > 0 {
		if ch, ok := mc.Agg("changed").(bool); ok && ch {
			p.roundChanged = true
		}
		if hooked, ok := mc.Agg("hooked").([][2]VertexID); ok {
			p.edges = append(p.edges, hooked...)
		}
		if p.trace {
			if snap, ok := mc.Agg("snapshot").([][2]VertexID); ok && len(snap) > 0 {
				d := make([]VertexID, len(snap))
				for _, pair := range snap {
					d[pair[0]] = pair[1]
				}
				p.snapshots = append(p.snapshots, d)
			}
		}
	}
	if mc.Superstep() > 0 && mc.Superstep()%svPhases == 0 {
		if !p.roundChanged {
			mc.Halt()
			return
		}
		p.roundChanged = false
	}
}

func (p *svProgram) Compute(ctx *pregel.Context[svValue, svMsg], msgs []svMsg) {
	v := ctx.Value()
	switch ctx.Superstep() % svPhases {
	case 0, 8, 16: // GP_REQ
		if p.trace && ctx.Superstep()%svPhases == 0 {
			ctx.Aggregate("snapshot", [2]VertexID{ctx.ID(), v.d})
		}
		ctx.SendTo(v.d, svMsg{Kind: svReq, From: ctx.ID()})
	case 1, 9, 17: // GP_REPLY
		for _, m := range msgs {
			if m.Kind == svReq {
				ctx.SendTo(m.From, svMsg{Kind: svReply, D: v.d})
			}
		}
	case 2, 10: // STAR_INIT
		for _, m := range msgs {
			if m.Kind == svReply {
				v.gp = m.D
			}
		}
		v.star = true
		if v.gp != v.d {
			v.star = false
			ctx.SendTo(v.d, svMsg{Kind: svNotStar})
			ctx.SendTo(v.gp, svMsg{Kind: svNotStar})
		}
	case 3, 11: // STAR_NOTIFY
		for _, m := range msgs {
			if m.Kind == svNotStar {
				v.star = false
			}
		}
		ctx.SendTo(v.d, svMsg{Kind: svStReq, From: ctx.ID()})
	case 4, 12: // STAR_REPLY
		for _, m := range msgs {
			if m.Kind == svStReq {
				ctx.SendTo(m.From, svMsg{Kind: svStReply, Star: v.star})
			}
		}
	case 5, 13: // STAR_SET + D exchange
		for _, m := range msgs {
			if m.Kind == svStReply {
				v.star = m.Star
			}
		}
		ctx.SendToNeighbors(svMsg{Kind: svDVal, From: ctx.ID(), D: v.d})
	case 6, 14: // hook proposals
		minD, minFrom := graph.NoVertex, graph.NoVertex
		for _, m := range msgs {
			if m.Kind != svDVal {
				continue
			}
			if minD == graph.NoVertex || m.D < minD || (m.D == minD && m.From < minFrom) {
				minD, minFrom = m.D, m.From
			}
		}
		ctx.Charge(int64(len(msgs)))
		if minD == graph.NoVertex || minD >= v.d {
			return
		}
		eligible := false
		if ctx.Superstep()%svPhases == 6 {
			eligible = v.gp == v.d // tree hooking: v's parent is a root
		} else {
			eligible = v.star // star hooking: v is in a star
		}
		if eligible {
			ctx.SendTo(v.d, svMsg{Kind: svHook, D: minD, EdgeU: ctx.ID(), EdgeV: minFrom})
		}
	case 7, 15: // HOOK_APPLY at roots
		best := svMsg{D: graph.NoVertex}
		for _, m := range msgs {
			if m.Kind != svHook {
				continue
			}
			if best.D == graph.NoVertex || m.D < best.D ||
				(m.D == best.D && (m.EdgeU < best.EdgeU || (m.EdgeU == best.EdgeU && m.EdgeV < best.EdgeV))) {
				best = m
			}
		}
		if best.D != graph.NoVertex && best.D < v.d {
			v.d = best.D
			ctx.Aggregate("changed", true)
			ctx.Aggregate("hooked", [2]VertexID{best.EdgeU, best.EdgeV})
		}
	case 18: // SHORTCUT
		for _, m := range msgs {
			if m.Kind == svReply {
				v.gp = m.D
			}
		}
		if v.gp != v.d {
			v.d = v.gp
			ctx.Aggregate("changed", true)
		}
	}
}

func (p *svProgram) StateUnits(v *svValue) int64 { return 3 }

// SVCC runs Shiloach–Vishkin connected components. The input must be
// undirected; use WCC for directed graphs.
func SVCC(g *graph.Graph, cfg Config) (*SVResult, error) {
	return runSV(g, cfg, false)
}

// SVCCTrace runs S-V and additionally records the pointer forest D at
// the start of every round — the states the paper's Figures 2 and 3
// illustrate. Intended for small graphs (one n-sized snapshot per
// round).
func SVCCTrace(g *graph.Graph, cfg Config) (*SVResult, [][]VertexID, error) {
	res, err := runSV(g, cfg, true)
	if err != nil {
		return nil, nil, err
	}
	return res, res.snapshots, nil
}

func runSV(g *graph.Graph, cfg Config, trace bool) (*SVResult, error) {
	prog := &svProgram{trace: trace}
	eng := pregel.NewEngine[svValue, svMsg](g, prog, pregelConfig[svMsg](Env{Config: cfg}))
	eng.RegisterAggregator("changed", pregel.BoolOr())
	eng.RegisterAggregator("hooked", pregel.Collect[[2]VertexID]())
	eng.RegisterAggregator("snapshot", pregel.Collect[[2]VertexID]())
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &SVResult{Color: make([]VertexID, g.N()), Stats: res.Stats, snapshots: prog.snapshots}
	for v, val := range res.Values {
		out.Color[v] = val.d
	}
	for _, e := range prog.edges {
		u, w := e[0], e[1]
		if u > w {
			u, w = w, u
		}
		out.TreeEdges = append(out.TreeEdges, graph.UndirectedEdge{U: u, V: w, W: 1})
	}
	sort.Slice(out.TreeEdges, func(i, j int) bool {
		if out.TreeEdges[i].U != out.TreeEdges[j].U {
			return out.TreeEdges[i].U < out.TreeEdges[j].U
		}
		return out.TreeEdges[i].V < out.TreeEdges[j].V
	})
	return out, nil
}

// WCC computes weakly connected components of a directed graph by
// running S-V on the underlying undirected graph (Table 1 row 6).
func WCC(g *graph.Graph, cfg Config) (*CCResult, error) {
	res, err := SVCC(g.Underlying(), cfg)
	if err != nil {
		return nil, err
	}
	return &CCResult{Color: res.Color, Stats: res.Stats}, nil
}
