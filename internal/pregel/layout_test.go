package pregel

import (
	"fmt"
	"testing"
	"unsafe"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// TestPerWorkerStateOnOwnLines holds pregel's per-worker compute
// contexts to the 128-byte rule (see runtime.LinePad): each lies
// LinePad bytes past the previous one and past its allocation's start.
func TestPerWorkerStateOnOwnLines(t *testing.T) {
	g := graph.Grid(6, 6)
	for workers := 1; workers <= 8; workers++ {
		t.Run(fmt.Sprint("W=", workers), func(t *testing.T) {
			e := NewEngine[int, int](g, &echoProgram{rounds: 2}, Config[int]{EngineConfig: rt.EngineConfig{Workers: workers}})
			end := uintptr(unsafe.Pointer(&e.ctxs[0]))
			for w := range e.ctxs {
				at := uintptr(unsafe.Pointer(&e.ctxs[w].V))
				if at-end < rt.LinePad {
					t.Errorf("ctxs[%d] lies %d bytes past the previous state", w, at-end)
				}
				end = at + unsafe.Sizeof(e.ctxs[w].V)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
