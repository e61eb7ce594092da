package blockcentric

import (
	"fmt"
	"testing"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// foldProbe records, per vertex, the fold of the messages it receives
// in superstep 1 and their raw count. Its Combine is order-sensitive,
// so a recipient's value pins the exact arrival order of its messages.
type foldProbe struct{}

type folded struct {
	val uint64
	n   int32
}

func (foldProbe) Init(*graph.Graph, VertexID) folded { return folded{} }

func (foldProbe) Combine(a, b uint64) uint64 { return a*1_000_003 + b }

func (foldProbe) ComputeBlock(ctx *BlockContext[folded, uint64], in *Inbox[uint64]) {
	if ctx.Superstep() == 0 {
		for _, v := range ctx.Block() {
			for _, u := range ctx.Out(v) {
				ctx.SendTo(u, uint64(v))
			}
		}
	}
	for _, v := range in.Vertices() {
		m, n := in.Message(v)
		*ctx.Value(v) = folded{m, n}
	}
	ctx.VoteToHalt()
}

// TestBlockInboxFoldOrder pins the fold contract: every recipient's
// messages fold in the order a pulling block's own sends come first,
// then the source blocks ascending, each in send order (a pushing
// block's own sends take their source-block place). It also rolls a
// run back to the frame taken before superstep 1 and checks the
// restored inboxes fold to the same values.
func TestBlockInboxFoldOrder(t *testing.T) {
	g := graph.RMAT(9, 3000, 3)
	const blocks = 3
	for _, mode := range []rt.DirectionMode{rt.DirectionPush, rt.DirectionPull, rt.DirectionAuto} {
		for _, faults := range []*rt.FaultPlan{nil, rt.PlanOf(rt.CorruptCheckpoint(2), rt.Crash(2))} {
			t.Run(fmt.Sprintf("mode=%v/faults=%v", mode, faults != nil), func(t *testing.T) {
				cfg := Config{Workers: blocks, Mode: mode}
				if faults != nil {
					cfg.CheckpointEvery, cfg.Faults = 1, faults
				}
				e := NewEngine[folded, uint64](g, foldProbe{}, cfg)
				want := expectedFolds(t, e)
				res, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if faults != nil && (res.Stats.Recovery.Rollbacks != 1 || res.Stats.Recovery.CorruptedCheckpoints != 1) {
					t.Fatalf("recovery %+v: want one rollback past one corrupted frame", res.Stats.Recovery)
				}
				for v, got := range res.Values {
					if got != want[v] {
						t.Fatalf("vertex %d: folded %+v, want %+v", v, got, want[v])
					}
				}
			})
		}
	}
}

// expectedFolds folds every vertex's superstep-0 messages sequentially
// in the order the contract derives from the CSR, the owners and the
// blocks' pull decisions.
func expectedFolds(t *testing.T, e *Engine[folded, uint64]) []folded {
	sends := make([][][2]VertexID, len(e.blocks)) // per source block: (dst, src) in send order
	var scratch graph.Scratch
	for b, blk := range e.blocks {
		for _, v := range blk {
			for _, u := range e.csr.OutSpan(v, &scratch) {
				sends[b] = append(sends[b], [2]VertexID{u, v})
			}
		}
	}
	want := make([]folded, len(e.values))
	deliver := func(from, to int) {
		for _, s := range sends[from] {
			if int(e.owner[s[0]]) != to {
				continue
			}
			w := &want[s[0]]
			if w.n == 0 {
				w.val = uint64(s[1])
			} else {
				w.val = foldProbe{}.Combine(w.val, uint64(s[1]))
			}
			w.n++
		}
	}
	pulls, pushes := 0, 0
	for d := range e.blocks {
		if e.pullBlock[d] {
			pulls++
			deliver(d, d)
		} else {
			pushes++
		}
		for s := range e.blocks {
			if s != d || !e.pullBlock[d] {
				deliver(s, d)
			}
		}
	}
	if e.cfg.Mode == rt.DirectionAuto && (pulls == 0 || pushes == 0) {
		t.Fatalf("auto placed %d pulling and %d pushing blocks; the graph should mix both", pulls, pushes)
	}
	return want
}
