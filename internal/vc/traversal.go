package vc

import (
	"fmt"
	"sort"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// TraversalResult holds pre- and post-order numbers (0-based) computed
// by the Euler-tour + list-ranking pipeline of §3.4.2 (Table 1 row 9).
type TraversalResult struct {
	Pre, Post []int32
	Stats     *bsp.Stats
}

// edgeIndex enumerates the 2(n-1) directed edges of a tree with sorted
// adjacency: edge (u, i-th neighbor of u) gets ID offset[u]+i.
type edgeIndex struct {
	t      *graph.Graph
	offset []int32
	u, v   []VertexID // per edge ID
}

func newEdgeIndex(t *graph.Graph) *edgeIndex {
	n := t.N()
	idx := &edgeIndex{t: t, offset: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		idx.offset[i+1] = idx.offset[i] + int32(len(t.Out[i]))
	}
	ne := int(idx.offset[n])
	idx.u = make([]VertexID, ne)
	idx.v = make([]VertexID, ne)
	for u := 0; u < n; u++ {
		for i, e := range t.Out[u] {
			id := idx.offset[u] + int32(i)
			idx.u[id] = VertexID(u)
			idx.v[id] = e.Dst
		}
	}
	return idx
}

func (idx *edgeIndex) id(u, v VertexID) VertexID {
	adj := idx.t.Out[u]
	i := sort.Search(len(adj), func(i int) bool { return adj[i].Dst >= v })
	return VertexID(idx.offset[u] + int32(i))
}

// forward-marking program: each tour-edge vertex exchanges its tour
// position with its reverse edge; the earlier of the two is the
// forward (downward) tree edge.
type fwValue struct{ forward bool }

type fwProgram struct {
	rev  []VertexID
	sum1 []int64
}

func (p *fwProgram) Init(g *graph.Graph, id VertexID) fwValue { return fwValue{} }

func (p *fwProgram) Compute(ctx *pregel.Context[fwValue, int64], msgs []int64) {
	switch ctx.Superstep() {
	case 0:
		ctx.SendTo(p.rev[ctx.ID()], p.sum1[ctx.ID()])
		ctx.VoteToHalt()
	case 1:
		ctx.Value().forward = p.sum1[ctx.ID()] < msgs[0]
		ctx.VoteToHalt()
	}
}

func (p *fwProgram) StateUnits(v *fwValue) int64 { return 1 }

// eulerNumbers carries everything the Euler-tour pipeline derives about
// a rooted tree: traversal numbers, parents, subtree sizes, and the
// merged statistics of all pipeline stages. It is shared by
// PrePostOrder (row 9) and the Tarjan–Vishkin BCC pipeline (row 5).
type eulerNumbers struct {
	pre, post []int32
	parent    []VertexID
	nd        []int32 // subtree sizes
	stats     *bsp.Stats
}

// PrePostOrder computes the pre- and post-order numbering of a rooted
// tree with the paper's pipeline: Euler tour (BPPA), tour-position
// list-ranking, forward/backward marking (2-superstep BPPA), and two
// more list-ranking passes. Work is O(n log n) — more than the O(n)
// sequential DFS, which is the point of Table 1 row 9.
func PrePostOrder(t *graph.Graph, root VertexID, cfg Config) (*TraversalResult, error) {
	en, err := eulerPipeline(t, root, cfg)
	if err != nil {
		return nil, err
	}
	return &TraversalResult{Pre: en.pre, Post: en.post, Stats: en.stats}, nil
}

func eulerPipeline(t *graph.Graph, root VertexID, cfg Config) (*eulerNumbers, error) {
	if err := validateRoot(t, root); err != nil {
		return nil, err
	}
	n := t.N()
	if n == 1 {
		return &eulerNumbers{
			pre:    []int32{0},
			post:   []int32{0},
			parent: []VertexID{graph.NoVertex},
			nd:     []int32{1},
			stats:  &bsp.Stats{N: 1},
		}, nil
	}
	et, err := EulerTour(t, cfg)
	if err != nil {
		return nil, err
	}
	idx := newEdgeIndex(t)
	ne := len(idx.u)

	// Tour successor per edge ID, its inverse as predecessor links, and
	// the list head (the tour's first edge).
	succ := make([]VertexID, ne)
	for e := 0; e < ne; e++ {
		u, v := idx.u[e], idx.v[e]
		succ[e] = idx.id(v, et.Succ[u][v])
	}
	pred := make([]VertexID, ne)
	for e := 0; e < ne; e++ {
		pred[succ[e]] = VertexID(e)
	}
	head := idx.id(root, t.Out[root][0].Dst)
	pred[head] = graph.NoVertex

	ones := make([]int64, ne)
	for i := range ones {
		ones[i] = 1
	}
	lr1, err := ListRank(pred, ones, cfg)
	if err != nil {
		return nil, err
	}

	// Forward/backward marking on the edge graph (edges to the reverse
	// edge, for degree accounting).
	rev := make([]VertexID, ne)
	eg := graph.New(ne, true)
	for e := 0; e < ne; e++ {
		rev[e] = idx.id(idx.v[e], idx.u[e])
		eg.AddEdge(VertexID(e), rev[e])
	}
	eg.EnsureIn()
	fw := &fwProgram{rev: rev, sum1: lr1.Sum}
	fwEng := pregel.NewEngine[fwValue, int64](eg, fw, pregelConfig[int64](Env{Config: cfg}))
	fwRes, err := fwEng.Run()
	if err != nil {
		return nil, err
	}

	valPre := make([]int64, ne)
	valPost := make([]int64, ne)
	for e := 0; e < ne; e++ {
		if fwRes.Values[e].forward {
			valPre[e] = 1
		} else {
			valPost[e] = 1
		}
	}
	lr2, err := ListRank(pred, valPre, cfg)
	if err != nil {
		return nil, err
	}
	lr3, err := ListRank(pred, valPost, cfg)
	if err != nil {
		return nil, err
	}

	out := &eulerNumbers{
		pre:    make([]int32, n),
		post:   make([]int32, n),
		parent: make([]VertexID, n),
		nd:     make([]int32, n),
		stats:  MergeStats(et.Stats, lr1.Stats, fwRes.Stats, lr2.Stats, lr3.Stats),
	}
	for i := range out.parent {
		out.parent[i] = graph.NoVertex
	}
	for e := 0; e < ne; e++ {
		if fwRes.Values[e].forward {
			v := idx.v[e]
			out.pre[v] = int32(lr2.Sum[e]) // pre(v) = sum(e) for forward e=(u,v)
			out.parent[v] = idx.u[e]
			// Subtree size from tour positions: the backward edge (v,u)
			// closes the subtree opened by the forward edge (u,v).
			back := idx.id(v, idx.u[e])
			out.nd[v] = int32((lr1.Sum[back] - lr1.Sum[e] + 1) / 2)
		} else {
			out.post[idx.u[e]] = int32(lr3.Sum[e] - 1) // post(v) = sum(e')-1 for backward e'=(v,u)
		}
	}
	out.pre[root] = 0
	out.post[root] = int32(n - 1)
	out.nd[root] = int32(n)
	return out, nil
}

// validateRoot guards the exported pipeline against out-of-range roots.
func validateRoot(t *graph.Graph, root VertexID) error {
	if int(root) < 0 || int(root) >= t.N() {
		return fmt.Errorf("vc: root %d out of range [0,%d)", root, t.N())
	}
	return nil
}
