package vc

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
)

// ListRankResult holds the output of vertex-centric list ranking:
// Sum[v] is the sum of Val over the elements from v back to the list
// head, inclusive.
type ListRankResult struct {
	Sum   []int64
	Stats *bsp.Stats
}

const (
	lrReq int8 = iota
	lrReply
)

type lrMsg struct {
	Kind int8
	From VertexID
	Sum  int64
	Pred VertexID
}

type lrValue struct {
	sum  int64
	pred VertexID
}

type lrProgram struct {
	pred []VertexID
	val  []int64
}

func (p *lrProgram) Init(g *graph.Graph, id VertexID) lrValue {
	return lrValue{sum: p.val[id], pred: p.pred[id]}
}

func (p *lrProgram) Compute(ctx *pregel.Context[lrValue, lrMsg], msgs []lrMsg) {
	v := ctx.Value()
	if ctx.Superstep()%2 == 0 {
		// Apply the reply from the previous round, then issue the next
		// pointer-jump request.
		for _, m := range msgs {
			if m.Kind != lrReply {
				continue
			}
			v.sum += m.Sum
			v.pred = m.Pred
		}
		if v.pred != graph.NoVertex {
			ctx.SendTo(v.pred, lrMsg{Kind: lrReq, From: ctx.ID()})
		}
		ctx.VoteToHalt()
		return
	}
	// Odd superstep: serve requests with this round's (sum, pred).
	for _, m := range msgs {
		if m.Kind != lrReq {
			continue
		}
		ctx.SendTo(m.From, lrMsg{Kind: lrReply, Sum: v.sum, Pred: v.pred})
	}
	ctx.VoteToHalt()
}

func (p *lrProgram) StateUnits(v *lrValue) int64 { return 2 }

// ListRank runs the BPPA pointer-jumping list-ranking algorithm of
// §3.4.2: each element v with predecessor link pred[v] (NoVertex at the
// head) and value val[v] learns sum[v], the sum of values from v to the
// head. Each pointer jump is a two-superstep request/reply round, so the
// algorithm takes O(log n) rounds; each element sends and receives at
// most one message per superstep (pred is injective on a list).
func ListRank(pred []VertexID, val []int64, cfg Config) (*ListRankResult, error) {
	n := len(pred)
	// The list as a graph: one directed edge per predecessor link, used
	// for degree accounting in the BPPA checks.
	g := graph.New(n, true)
	for v, p := range pred {
		if p != graph.NoVertex {
			g.AddEdge(VertexID(v), p)
		}
	}
	g.EnsureIn()
	prog := &lrProgram{pred: pred, val: val}
	eng := pregel.NewEngine[lrValue, lrMsg](g, prog, pregelConfig[lrMsg](Env{Config: cfg}))
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &ListRankResult{Sum: make([]int64, n), Stats: res.Stats}
	for v, lv := range res.Values {
		out.Sum[v] = lv.sum
	}
	return out, nil
}

// SeqListRank is the O(n) sequential reference used in tests and by the
// Table 1 harness as the baseline for row 9's list-ranking component.
func SeqListRank(pred []VertexID, val []int64) []int64 {
	n := len(pred)
	sum := make([]int64, n)
	done := make([]bool, n)
	var rec func(v VertexID) int64
	rec = func(v VertexID) int64 {
		if done[v] {
			return sum[v]
		}
		done[v] = true
		if pred[v] == graph.NoVertex {
			sum[v] = val[v]
		} else {
			sum[v] = val[v] + rec(pred[v])
		}
		return sum[v]
	}
	for v := 0; v < n; v++ {
		rec(VertexID(v))
	}
	return sum
}
