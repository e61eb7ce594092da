package pregel

import (
	"math"
	"slices"
	"testing"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// nestedSendProgram walks its out-edges with ForEachOut and, from inside
// the callback, sends along all of them with SendToNeighbors — the
// nesting in which both calls read the same vertex's span through the
// worker's Scratch. Each value sums w·dst over the walk plus the
// messages received.
type nestedSendProgram struct{}

func (nestedSendProgram) Init(*graph.Graph, VertexID) float64 { return 0 }

func (nestedSendProgram) Compute(ctx *Context[float64, float64], msgs []float64) {
	if ctx.Superstep() == 0 {
		i := 0
		ctx.ForEachOut(func(dst VertexID, w float64) {
			if i%37 == 0 {
				ctx.SendToNeighbors(float64(ctx.ID()))
			}
			i++
			*ctx.Value() += w * float64(dst)
		})
	}
	for _, m := range msgs {
		*ctx.Value() += m
	}
	ctx.VoteToHalt()
}

// TestForEachOutNestedSendPackedMatchesFlat runs the nesting on a packed
// snapshot with hubs whose spans cross blocks: every walk and every
// send must see exactly what the flat snapshot gives.
func TestForEachOutNestedSendPackedMatchesFlat(t *testing.T) {
	run := func(enc graph.EdgeEncoding) []float64 {
		g := graph.PreferentialAttachment(800, 4, 3)
		graph.RandomWeights(g, 4)
		g.Encoding = enc
		eng := NewEngine[float64, float64](g, nestedSendProgram{}, Config[float64]{EngineConfig: rt.EngineConfig{Workers: 2}})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	}
	flat, packed := run(graph.EncodeInt32), run(graph.EncodePacked)
	if !slices.EqualFunc(flat, packed, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("packed values differ from flat")
	}
}
