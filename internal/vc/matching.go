package vc

import (
	"slices"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// MatchingResult holds a matching as mutual pointers (NoVertex =
// unmatched) plus its total weight.
type MatchingResult struct {
	Match  []VertexID
	Weight float64
	Stats  *bsp.Stats
}

// --- Maximum weight matching (Table 1 row 13) ---
//
// The vertex-centric Preis-style algorithm of Salihoglu & Widom: in
// each round every free vertex points at its locally heaviest incident
// edge; mutually pointing pairs match (locally dominant edges), matched
// vertices announce themselves, and neighbors drop them. K rounds of
// O(m) work; the sequential comparator runs in O(m).

const (
	mwmPropose = iota
	mwmMatch
	mwmClean
)

const (
	mwmMsgProp int8 = iota
	mwmMsgMatched
)

type mwmMsg struct {
	Kind int8
	From VertexID
}

type mwmValue struct {
	match  VertexID
	target VertexID // current round's locally heaviest neighbor
	w      float64  // weight of the matched edge
}

type mwmProgram struct {
	phase int
}

func (p *mwmProgram) Init(g *graph.Graph, id VertexID) mwmValue {
	return mwmValue{match: graph.NoVertex, target: graph.NoVertex}
}

func (p *mwmProgram) BeforeSuperstep(mc *pregel.MasterContext) {
	if mc.Superstep() > 0 {
		switch p.phase {
		case mwmPropose:
			p.phase = mwmMatch
		case mwmMatch:
			p.phase = mwmClean
		case mwmClean:
			if live, _ := mc.Agg("live").(int64); live == 0 {
				mc.Halt()
				return
			}
			p.phase = mwmPropose
		}
	}
	mc.SetGlobal("phase", p.phase)
}

func (p *mwmProgram) Compute(ctx *pregel.Context[mwmValue, mwmMsg], msgs []mwmMsg) {
	v := ctx.Value()
	switch ctx.Global("phase").(int) {
	case mwmPropose:
		if v.match != graph.NoVertex {
			return
		}
		adj := ctx.OutEdges()
		ctx.Charge(int64(len(adj)))
		v.target = graph.NoVertex
		var bw float64
		for _, e := range adj {
			if v.target == graph.NoVertex || e.W > bw || (e.W == bw && e.Dst < v.target) {
				v.target, bw = e.Dst, e.W
			}
		}
		if v.target != graph.NoVertex {
			v.w = bw
			ctx.SendTo(v.target, mwmMsg{Kind: mwmMsgProp, From: ctx.ID()})
		}
	case mwmMatch:
		if v.match != graph.NoVertex {
			return
		}
		for _, m := range msgs {
			if m.Kind == mwmMsgProp && m.From == v.target {
				v.match = v.target
				ctx.SendToNeighbors(mwmMsg{Kind: mwmMsgMatched, From: ctx.ID()})
				break
			}
		}
	case mwmClean:
		if len(msgs) > 0 {
			gone := make(map[VertexID]bool, len(msgs))
			for _, m := range msgs {
				if m.Kind == mwmMsgMatched {
					gone[m.From] = true
				}
			}
			adj := ctx.OutEdges()
			kept := make([]graph.Edge, 0, len(adj))
			for _, e := range adj {
				if !gone[e.Dst] {
					kept = append(kept, e)
				}
			}
			ctx.Charge(int64(len(adj)))
			ctx.SetOutEdges(kept)
		}
		if v.match == graph.NoVertex && len(ctx.OutEdges()) > 0 {
			ctx.Aggregate("live", int64(1))
		}
	}
}

func (p *mwmProgram) StateUnits(v *mwmValue) int64 { return 3 }

// MaxWeightMatching computes a 1/2-approximate maximum weight matching
// by repeated locally-heaviest-edge selection. With distinct weights
// the result equals the sequential greedy-by-weight matching.
func MaxWeightMatching(g *graph.Graph, cfg Config) (*MatchingResult, error) {
	prog := &mwmProgram{}
	eng := pregel.NewEngine[mwmValue, mwmMsg](g, prog, pregelConfig[mwmMsg](Env{Config: cfg}))
	eng.RegisterAggregator("live", pregel.SumInt64())
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &MatchingResult{Match: make([]VertexID, g.N()), Stats: res.Stats}
	for v, val := range res.Values {
		out.Match[v] = val.match
		if val.match != graph.NoVertex && VertexID(v) < val.match {
			out.Weight += val.w
		}
	}
	return out, nil
}

// --- Bipartite maximal matching (Table 1 row 14) ---
//
// The four-phase randomized algorithm from the Pregel paper: free left
// vertices request, free right vertices grant one request, left
// vertices accept one grant, right vertices confirm. O(log n) expected
// rounds with random grants; BPPA (per the paper) but asymptotically
// more work than the sequential greedy scan.

const (
	bpmRequest = iota
	bpmGrant
	bpmAccept
	bpmConfirm
)

const (
	bpmMsgReq int8 = iota
	bpmMsgGrant
	bpmMsgBusy
	bpmMsgAccept
)

type bpmMsg struct {
	Kind int8
	From VertexID
}

type bpmValue struct {
	match      VertexID
	candidates []VertexID // left side: right neighbors not known matched
}

type bpmProgram struct {
	nl    int
	phase int
}

func (p *bpmProgram) Init(g *graph.Graph, id VertexID) bpmValue {
	v := bpmValue{match: graph.NoVertex}
	if int(id) < p.nl {
		v.candidates = g.Neighbors(id)
	}
	return v
}

func (p *bpmProgram) left(id VertexID) bool { return int(id) < p.nl }

func (p *bpmProgram) BeforeSuperstep(mc *pregel.MasterContext) {
	if mc.Superstep() > 0 {
		switch p.phase {
		case bpmRequest:
			if reqs, _ := mc.Agg("requests").(int64); reqs == 0 {
				mc.Halt()
				return
			}
			p.phase = bpmGrant
		case bpmGrant:
			p.phase = bpmAccept
		case bpmAccept:
			p.phase = bpmConfirm
		case bpmConfirm:
			p.phase = bpmRequest
		}
	}
	mc.SetGlobal("phase", p.phase)
}

func (p *bpmProgram) Compute(ctx *pregel.Context[bpmValue, bpmMsg], msgs []bpmMsg) {
	v := ctx.Value()
	switch ctx.Global("phase").(int) {
	case bpmRequest:
		if !p.left(ctx.ID()) || v.match != graph.NoVertex {
			return
		}
		for _, u := range v.candidates {
			ctx.SendTo(u, bpmMsg{Kind: bpmMsgReq, From: ctx.ID()})
		}
		if len(v.candidates) > 0 {
			ctx.Aggregate("requests", int64(len(v.candidates)))
		}
	case bpmGrant:
		if p.left(ctx.ID()) {
			return
		}
		var requesters []VertexID
		for _, m := range msgs {
			if m.Kind == bpmMsgReq {
				requesters = append(requesters, m.From)
			}
		}
		if len(requesters) == 0 {
			return
		}
		if v.match != graph.NoVertex {
			for _, r := range requesters {
				ctx.SendTo(r, bpmMsg{Kind: bpmMsgBusy, From: ctx.ID()})
			}
			return
		}
		// Inbox order follows the placement (lanes arrive by source
		// worker): sort before the draw, so the choice does not.
		slices.Sort(requesters)
		chosen := requesters[ctx.Rand().Intn(len(requesters))]
		ctx.SendTo(chosen, bpmMsg{Kind: bpmMsgGrant, From: ctx.ID()})
	case bpmAccept:
		if !p.left(ctx.ID()) {
			return
		}
		busy := make(map[VertexID]bool)
		var grants []VertexID
		for _, m := range msgs {
			switch m.Kind {
			case bpmMsgBusy:
				busy[m.From] = true
			case bpmMsgGrant:
				grants = append(grants, m.From)
			}
		}
		if len(busy) > 0 {
			kept := v.candidates[:0]
			for _, u := range v.candidates {
				if !busy[u] {
					kept = append(kept, u)
				}
			}
			v.candidates = kept
		}
		if len(grants) > 0 && v.match == graph.NoVertex {
			slices.Sort(grants)
			chosen := grants[ctx.Rand().Intn(len(grants))]
			v.match = chosen
			ctx.SendTo(chosen, bpmMsg{Kind: bpmMsgAccept, From: ctx.ID()})
		}
	case bpmConfirm:
		if p.left(ctx.ID()) {
			return
		}
		for _, m := range msgs {
			if m.Kind == bpmMsgAccept {
				v.match = m.From
			}
		}
	}
}

func (p *bpmProgram) StateUnits(v *bpmValue) int64 { return int64(1 + len(v.candidates)) }

// BipartiteMatching computes a maximal matching of a bipartite graph
// whose left side is the ID range [0, nl).
func BipartiteMatching(g *graph.Graph, nl int, cfg Config) (*MatchingResult, error) {
	if !g.IsBipartition(nl) {
		return nil, errNotBipartite
	}
	prog := &bpmProgram{nl: nl}
	eng := pregel.NewEngine[bpmValue, bpmMsg](g, prog, pregelConfig[bpmMsg](Env{Config: cfg}))
	eng.RegisterAggregator("requests", pregel.SumInt64())
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &MatchingResult{Match: make([]VertexID, g.N()), Stats: res.Stats}
	for v, val := range res.Values {
		out.Match[v] = val.match
		if val.match != graph.NoVertex && VertexID(v) < val.match {
			out.Weight++
		}
	}
	return out, nil
}
