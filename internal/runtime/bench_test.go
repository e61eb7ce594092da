package runtime

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// Superstep dispatch: one compute phase + one delivery phase per
// superstep. The persistent pool parks its goroutines between phases;
// the baseline spawns fresh goroutines with a WaitGroup each phase,
// which is what all four engines did before the runtime existed.

func BenchmarkDispatchPool(b *testing.B) {
	p := NewPool(4)
	defer p.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Lease(0).Run(func(int) {})
		p.Lease(0).Run(func(int) {})
	}
}

func BenchmarkDispatchGoroutineChurn(b *testing.B) {
	phase := func() {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(int) { defer wg.Done() }(w)
		}
		wg.Wait()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		phase()
		phase()
	}
}

// Mailbox delivery: a steady-state superstep where every vertex sends
// to a fixed fan-out of destinations. After warm-up the message path
// should allocate nothing (lanes and inboxes keep capacity).

func benchMailbox(b *testing.B, comb func(a, b int) int) {
	const n, workers, fanout = 1024, 4, 8
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = int32(v % workers)
	}
	mb := NewMailbox[int](workers, owner, comb)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mb.Advance()
		for v := 0; v < n; v++ {
			src := int(owner[v])
			for j := 1; j <= fanout; j++ {
				mb.Send(src, VertexID((v+j)%n), v+j)
			}
		}
		for w := 0; w < workers; w++ {
			mb.Deliver(w, nil)
		}
		for v := 0; v < n; v++ {
			mb.ResetVertex(VertexID(v))
		}
	}
}

func BenchmarkMailboxDeliver(b *testing.B) { benchMailbox(b, nil) }

func BenchmarkMailboxDeliverCombining(b *testing.B) {
	benchMailbox(b, func(a, c int) int {
		if a < c {
			return a
		}
		return c
	})
}

// Worklist iteration: the per-superstep Flip/Sort/drain/re-add cycle
// over a frontier that stays at n/4 vertices, versus the O(n) full
// rescan it replaced.

func BenchmarkWorklistIteration(b *testing.B) {
	const n, workers = 8192, 4
	wl := NewWorklists(verts(PartitionHashN(n, workers), workers), n)
	for v := 0; v < n; v += 4 {
		wl.Add(v%workers, VertexID(v))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wl.Flip()
		for w := 0; w < workers; w++ {
			wl.SortCur(w, nil)
			for _, v := range wl.Cur(w) {
				wl.Unmark(v)
				wl.Add(w, v) // vertex stays active
			}
		}
	}
}

func BenchmarkWorklistFullScanBaseline(b *testing.B) {
	// What the engines did before: test every vertex's halt flag even
	// when only n/4 are active.
	const n = 8192
	halted := make([]bool, n)
	for v := 0; v < n; v++ {
		halted[v] = v%4 != 0
	}
	b.ReportAllocs()
	count := 0
	for i := 0; i < b.N; i++ {
		for v := 0; v < n; v++ {
			if !halted[v] {
				count++
			}
		}
	}
	_ = count
}

func BenchmarkFIFODrain(b *testing.B) {
	const n = 4096
	q := NewFIFO(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for v := 0; v < n; v++ {
			q.Push(VertexID(v))
		}
		for {
			if _, ok := q.Pop(); !ok {
				break
			}
		}
	}
}

// Per-worker scaling: W workers split a fixed amount of per-vertex work
// over a range partition, so every ns/op difference between W = 1 and
// W = 2 comes from the primitive's own per-worker state. With that
// state on separate cache lines W = 2 takes about half the time of
// W = 1 on two free cores; with neighbouring workers' slice headers and
// gather scratch on one line it took longer than W = 1.

// rangeOwner gives worker k the vertices [k·n/w, (k+1)·n/w).
func rangeOwner(n, w int) []int32 {
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = int32(v * w / n)
	}
	return owner
}

func BenchmarkWorklistAddParallel(b *testing.B) {
	const n = 1 << 16
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("W=%d", workers), func(b *testing.B) {
			p := NewPool(workers)
			defer p.Close()
			lease := p.Lease(workers)
			wl := NewWorklists(verts(PartitionRangeN(n, workers), workers), n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wl.Flip()
				lease.Run(func(w int) {
					for v := w * n / workers; v < (w+1)*n/workers; v++ {
						wl.Unmark(VertexID(v))
						wl.Add(w, VertexID(v))
					}
				})
			}
		})
	}
}

func BenchmarkGatherParallel(b *testing.B) {
	const n, deg = 1 << 14, 16
	spans := make([][]VertexID, n)
	for v := range spans {
		for j := 0; j < deg; j++ {
			spans[v] = append(spans[v], VertexID((v*7+j*1031)%n))
		}
		slices.Sort(spans[v])
	}
	bc := NewBroadcasts[float64](n)
	for v := 0; v < n; v++ {
		bc.Set(VertexID(v), float64(v), nil)
	}
	sum := func(a, m float64) float64 { return a + m }
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("W=%d", workers), func(b *testing.B) {
			p := NewPool(workers)
			defer p.Close()
			lease := p.Lease(workers)
			owner := rangeOwner(n, workers)
			gs := make([]*Gatherer[float64], workers)
			for w := range gs {
				gs[w] = NewGatherer[float64](workers)
			}
			out := make([]float64, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lease.Run(func(w int) {
					for v := w * n / workers; v < (w+1)*n/workers; v++ {
						out[v], _, _ = gs[w].Gather(bc, owner, spans[v], sum)
					}
				})
			}
		})
	}
}
