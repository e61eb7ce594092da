package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Strongly connected components (Table 1 row 7) by iterative
// forward/backward min-label decomposition, the standard vertex-centric
// SCC scheme built from the connected-component primitive the paper
// attributes to Yan et al.: propagate minimum labels forward to color
// the graph into regions, propagate each region's root label backward
// inside its region, and extract vertices reached in both directions as
// one SCC per region root. Rounds repeat on the unassigned remainder.
// Not BPPA (superstep count is driven by δ and the number of rounds),
// and total work exceeds the linear-time Tarjan baseline.

// SCCResult labels every vertex with the smallest vertex ID of its
// strongly connected component.
type SCCResult struct {
	Comp  []VertexID
	Stats *bsp.Stats
}

const (
	sccFWInit = iota
	sccFW
	sccBWInit
	sccBW
	sccCollect
)

type sccValue struct {
	scc       VertexID // assigned component, NoVertex while active
	fw        VertexID
	bwReached bool
}

type sccProgram struct {
	phase int // master state
}

func (p *sccProgram) Init(g *graph.Graph, id VertexID) sccValue {
	return sccValue{scc: graph.NoVertex, fw: id}
}

func (p *sccProgram) BeforeSuperstep(mc *pregel.MasterContext) {
	if mc.Superstep() > 0 {
		changed, _ := mc.Agg("changed").(bool)
		switch p.phase {
		case sccFWInit:
			p.phase = sccFW
		case sccFW:
			if !changed {
				p.phase = sccBWInit
			}
		case sccBWInit:
			p.phase = sccBW
		case sccBW:
			if !changed {
				p.phase = sccCollect
			}
		case sccCollect:
			remaining, _ := mc.Agg("remaining").(int64)
			if remaining == 0 {
				mc.Halt()
				return
			}
			p.phase = sccFWInit
		}
	}
	mc.SetGlobal("phase", p.phase)
}

func (p *sccProgram) Compute(ctx *pregel.Context[sccValue, VertexID], msgs []VertexID) {
	v := ctx.Value()
	if v.scc != graph.NoVertex {
		return // already extracted; ignore stray messages
	}
	switch ctx.Global("phase").(int) {
	case sccFWInit:
		v.fw = ctx.ID()
		v.bwReached = false
		ctx.SendToNeighbors(v.fw)
	case sccFW:
		min := v.fw
		for _, m := range msgs {
			if m < min {
				min = m
			}
		}
		if min < v.fw {
			v.fw = min
			ctx.SendToNeighbors(v.fw)
			ctx.Aggregate("changed", true)
		}
	case sccBWInit:
		if v.fw == ctx.ID() {
			v.bwReached = true
			for _, e := range ctx.InEdges() {
				ctx.SendTo(e.Dst, v.fw)
			}
			ctx.Aggregate("changed", true)
		}
	case sccBW:
		if !v.bwReached {
			for _, m := range msgs {
				if m == v.fw {
					v.bwReached = true
					for _, e := range ctx.InEdges() {
						ctx.SendTo(e.Dst, v.fw)
					}
					ctx.Aggregate("changed", true)
					break
				}
			}
		}
	case sccCollect:
		if v.bwReached {
			v.scc = v.fw
		} else {
			ctx.Aggregate("remaining", int64(1))
		}
	}
}

func (p *sccProgram) StateUnits(v *sccValue) int64 { return 3 }

// SCC computes strongly connected components of a directed graph.
func SCC(g *graph.Graph, cfg Config) (*SCCResult, error) {
	if !g.Directed {
		return nil, errNotDirected
	}
	g.EnsureIn()
	prog := &sccProgram{}
	eng := pregel.NewEngine[sccValue, VertexID](g, prog, pregelConfig[VertexID](Env{Config: cfg}))
	eng.RegisterAggregator("changed", pregel.BoolOr())
	eng.RegisterAggregator("remaining", pregel.SumInt64())
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &SCCResult{Comp: make([]VertexID, g.N()), Stats: res.Stats}
	for v, val := range res.Values {
		out.Comp[v] = val.scc
	}
	return out, nil
}
