package gas

import (
	"fmt"
	"testing"
	"unsafe"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// TestPerWorkerStateOnOwnLines holds the scatter buffers to the
// 128-byte rule (see runtime.LinePad): each worker's wake header lies
// LinePad bytes past the previous one's and past its allocation's start.
func TestPerWorkerStateOnOwnLines(t *testing.T) {
	g := graph.Grid(6, 6)
	for workers := 1; workers <= 8; workers++ {
		t.Run(fmt.Sprint("W=", workers), func(t *testing.T) {
			pr, err := Config{Workers: workers}.Prepare(g, defaults)
			if err != nil {
				t.Fatal(err)
			}
			defer pr.Release()
			p := newPolicy(g, CCProgram(), pr)
			defer rt.PutScratches(p.scratch)
			end := uintptr(unsafe.Pointer(&p.wake[0]))
			for w := range p.wake {
				at := uintptr(unsafe.Pointer(&p.wake[w].V))
				if at-end < rt.LinePad {
					t.Errorf("wake[%d] lies %d bytes past the previous state", w, at-end)
				}
				end = at + unsafe.Sizeof(p.wake[w].V)
			}
		})
	}
}
