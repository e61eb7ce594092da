package blockcentric

import (
	"fmt"
	"testing"
	"unsafe"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// TestPerWorkerStateOnOwnLines holds each block's context — its
// inbox and lane headers and send tallies — to the 128-byte
// rule (see runtime.LinePad): it lies LinePad bytes past the previous
// block's and past its allocation's start.
func TestPerWorkerStateOnOwnLines(t *testing.T) {
	g := graph.Grid(6, 6)
	for blocks := 1; blocks <= 8; blocks++ {
		t.Run(fmt.Sprint("W=", blocks), func(t *testing.T) {
			e := NewEngine(g, CCProgram(), Config{Workers: blocks})
			end := uintptr(unsafe.Pointer(&e.ctx[0]))
			for b := range e.ctx {
				at := uintptr(unsafe.Pointer(&e.ctx[b].V))
				if at-end < rt.LinePad {
					t.Errorf("block %d's context lies %d bytes past the previous state", b, at-end)
				}
				end = at + unsafe.Sizeof(e.ctx[b].V)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
