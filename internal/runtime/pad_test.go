package runtime

import (
	"fmt"
	"testing"
	"unsafe"
)

// span is the byte range [lo, hi) of one worker's hot state.
type span [2]uintptr

func spanOf[T any](p *T) span {
	a := uintptr(unsafe.Pointer(p))
	return span{a, a + unsafe.Sizeof(*p)}
}

func spanOfSlice[T any](s []T) span {
	a := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return span{a, a + uintptr(len(s))*unsafe.Sizeof(*new(T))}
}

// ownLines fails t unless the spans of different workers (hot[w] holds
// worker w's) lie at least LinePad bytes apart, and each span starts at
// least LinePad bytes past base, the start of its allocation (0: not
// checked).
func ownLines(t *testing.T, what string, base uintptr, hot [][]span) {
	t.Helper()
	for w, ss := range hot {
		for _, a := range ss {
			if base != 0 && a[0]-base < LinePad {
				t.Errorf("%s: worker %d's state starts %d bytes into its allocation", what, w, a[0]-base)
			}
			for u := w + 1; u < len(hot); u++ {
				for _, b := range hot[u] {
					var gap uintptr
					switch {
					case a[1] <= b[0]:
						gap = b[0] - a[1]
					case b[1] <= a[0]:
						gap = a[0] - b[1]
					}
					if gap < LinePad {
						t.Errorf("%s: workers %d and %d are %d bytes apart", what, w, u, gap)
					}
				}
			}
		}
	}
}

// TestPerWorkerStateOnOwnLines holds the runtime's per-worker state to
// the 128-byte rule (see LinePad) at every worker count.
func TestPerWorkerStateOnOwnLines(t *testing.T) {
	const n = 100
	for workers := 1; workers <= 8; workers++ {
		t.Run(fmt.Sprint("W=", workers), func(t *testing.T) {
			owner := make([]int32, n)
			for v := range owner {
				owner[v] = int32(v % workers)
			}
			wl := NewWorklists(verts(owner, workers), n)
			hot := make([][]span, workers)
			for w := range hot {
				hot[w] = []span{spanOf(&wl.lists[w].V)}
			}
			ownLines(t, "Worklists", uintptr(unsafe.Pointer(&wl.lists[0])), hot)

			for _, comb := range []func(a, b int) int{nil, func(a, b int) int { return a + b }} {
				mb := NewMailbox[int](workers, owner, comb)
				// Lane (src, dst) is written by src in compute and by
				// dst in delivery: every lane is its own worker's state.
				lanes := make([][]span, len(mb.lanes))
				for i := range lanes {
					lanes[i] = []span{spanOf(&mb.lanes[i].V)}
				}
				ownLines(t, "Mailbox lanes", uintptr(unsafe.Pointer(&mb.lanes[0])), lanes)
				for w := range hot {
					hot[w] = []span{spanOf(&mb.inbox[w].V)}
				}
				ownLines(t, "Mailbox recv and slab", uintptr(unsafe.Pointer(&mb.inbox[0])), hot)
			}

			// One gatherer per worker, allocated back to back as the
			// engines do; where each allocation starts is the
			// allocator's, so only the pairwise distance is checked.
			for w := range hot {
				g := NewGatherer[float64](workers)
				hot[w] = []span{spanOfSlice(g.partial), spanOfSlice(g.seen)}
			}
			ownLines(t, "Gatherer", 0, hot)
		})
	}
}
