package vc

import (
	"fmt"
	"sort"
	"strings"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// Semi-clustering, the fourth example algorithm of the Pregel paper
// [12] §5.4 (included here to complete the paper's algorithm set):
// a semi-cluster is a small vertex set scored by
//
//	S_c = (I_c − f_B·B_c) / (V_c(V_c−1)/2)
//
// where I_c is the weight of edges inside the cluster, B_c the weight
// of edges crossing its boundary, and f_B the boundary penalty. Every
// vertex maintains its C_max best clusters; each superstep it ships
// them to its neighbors, which try to add themselves (up to M_max
// members), re-score, and keep the best. The process runs a fixed
// number of iterations.

// SemiClusterConfig holds the algorithm parameters (zero values pick
// the defaults in parentheses).
type SemiClusterConfig struct {
	CMax       int     // clusters kept per vertex (2)
	MMax       int     // max members per cluster (4)
	FBoundary  float64 // boundary edge penalty f_B (0.5)
	Iterations int     // supersteps of exchange (10)
}

func (c *SemiClusterConfig) defaults() {
	if c.CMax <= 0 {
		c.CMax = 2
	}
	if c.MMax <= 0 {
		c.MMax = 4
	}
	if c.FBoundary == 0 {
		c.FBoundary = 0.5
	}
	if c.Iterations <= 0 {
		c.Iterations = 10
	}
}

// SemiCluster is one scored cluster.
type SemiCluster struct {
	Members []VertexID // sorted
	I, B    float64
	Score   float64
}

func (c SemiCluster) key() string {
	var b strings.Builder
	for _, m := range c.Members {
		fmt.Fprintf(&b, "%d,", m)
	}
	return b.String()
}

func (c SemiCluster) contains(v VertexID) bool {
	i := sort.Search(len(c.Members), func(i int) bool { return c.Members[i] >= v })
	return i < len(c.Members) && c.Members[i] == v
}

func scoreOf(i, b, fB float64, size int) float64 {
	den := float64(size*(size-1)) / 2
	if den < 1 {
		den = 1
	}
	return (i - fB*b) / den
}

// SemiClusterResult holds each vertex's best clusters and the global
// top clusters (deduplicated, best first).
type SemiClusterResult struct {
	PerVertex [][]SemiCluster
	Top       []SemiCluster
	Stats     *bsp.Stats
}

type scValue struct {
	clusters []SemiCluster
}

type scMsg struct {
	Clusters []SemiCluster
}

type scProgram struct {
	p SemiClusterConfig
}

func (p *scProgram) Init(g *graph.Graph, id VertexID) scValue {
	var b float64
	for _, e := range g.Out[id] {
		b += e.W
	}
	c := SemiCluster{Members: []VertexID{id}, B: b}
	c.Score = scoreOf(c.I, c.B, p.p.FBoundary, 1)
	return scValue{clusters: []SemiCluster{c}}
}

// join returns cluster c extended with v, rescored using v's adjacency.
func (p *scProgram) join(ctx *pregel.Context[scValue, scMsg], c SemiCluster, v VertexID) SemiCluster {
	nc := SemiCluster{
		Members: make([]VertexID, len(c.Members), len(c.Members)+1),
		I:       c.I,
		B:       c.B,
	}
	copy(nc.Members, c.Members)
	nc.Members = append(nc.Members, v)
	sort.Slice(nc.Members, func(i, j int) bool { return nc.Members[i] < nc.Members[j] })
	for _, e := range ctx.OutEdges() {
		ctx.Charge(1)
		if c.contains(e.Dst) {
			// Previously a boundary edge of c (counted when e.Dst
			// joined); now internal.
			nc.I += e.W
			nc.B -= e.W
		} else {
			nc.B += e.W
		}
	}
	nc.Score = scoreOf(nc.I, nc.B, p.p.FBoundary, len(nc.Members))
	return nc
}

func (p *scProgram) Compute(ctx *pregel.Context[scValue, scMsg], msgs []scMsg) {
	v := ctx.Value()
	if ctx.Superstep() >= p.p.Iterations {
		ctx.VoteToHalt()
		return
	}
	if ctx.Superstep() > 0 {
		seen := map[string]bool{}
		for _, c := range v.clusters {
			seen[c.key()] = true
		}
		merged := append([]SemiCluster(nil), v.clusters...)
		for _, m := range msgs {
			for _, c := range m.Clusters {
				ctx.Charge(int64(len(c.Members)))
				if !c.contains(ctx.ID()) && len(c.Members) < p.p.MMax {
					c = p.join(ctx, c, ctx.ID())
				}
				if k := c.key(); !seen[k] {
					seen[k] = true
					merged = append(merged, c)
				}
			}
		}
		sort.Slice(merged, func(i, j int) bool {
			if merged[i].Score != merged[j].Score {
				return merged[i].Score > merged[j].Score
			}
			return merged[i].key() < merged[j].key()
		})
		if len(merged) > p.p.CMax {
			merged = merged[:p.p.CMax]
		}
		v.clusters = merged
	}
	ctx.SendToNeighbors(scMsg{Clusters: v.clusters})
}

func (p *scProgram) StateUnits(v *scValue) int64 {
	var units int64
	for _, c := range v.clusters {
		units += int64(len(c.Members)) + 3
	}
	return units
}

// SemiClustering runs the Pregel semi-clustering algorithm on a
// weighted undirected graph.
func SemiClustering(g *graph.Graph, sc SemiClusterConfig, cfg Config) (*SemiClusterResult, error) {
	sc.defaults()
	prog := &scProgram{p: sc}
	ecfg := pregelConfig[scMsg](Env{Config: cfg})
	if ecfg.MaxSupersteps == 0 {
		ecfg.MaxSupersteps = sc.Iterations + 4
	}
	eng := pregel.NewEngine[scValue, scMsg](g, prog, ecfg)
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &SemiClusterResult{PerVertex: make([][]SemiCluster, g.N()), Stats: res.Stats}
	seen := map[string]bool{}
	for v, val := range res.Values {
		out.PerVertex[v] = val.clusters
		for _, c := range val.clusters {
			if k := c.key(); !seen[k] {
				seen[k] = true
				out.Top = append(out.Top, c)
			}
		}
	}
	sort.Slice(out.Top, func(i, j int) bool {
		if out.Top[i].Score != out.Top[j].Score {
			return out.Top[i].Score > out.Top[j].Score
		}
		return out.Top[i].key() < out.Top[j].key()
	})
	return out, nil
}
