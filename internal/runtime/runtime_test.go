package runtime

import (
	"slices"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryWorkerAndBarriers(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	if p.Workers() != 4 {
		t.Fatalf("workers %d", p.Workers())
	}
	seen := make([]int, 4)
	var total atomic.Int64
	for phase := 0; phase < 100; phase++ {
		p.Lease(0).Run(func(w int) {
			seen[w]++
			total.Add(1)
		})
		// Run is a barrier: all writes of this phase are visible here.
		for w, c := range seen {
			if c != phase+1 {
				t.Fatalf("phase %d: worker %d ran %d times", phase, w, c)
			}
		}
	}
	if total.Load() != 400 {
		t.Fatalf("total %d", total.Load())
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() != DefaultWorkers() {
		t.Fatalf("got %d, want %d", p.Workers(), DefaultWorkers())
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Lease(0).Run(func(int) {})
	p.Close()
	p.Close()
}

func TestMailboxNoCombiner(t *testing.T) {
	owner := []int32{0, 1, 0, 1} // 4 vertices over 2 workers
	mb := NewMailbox[int](2, owner, nil)
	mb.Send(0, 1, 10)
	mb.Send(0, 1, 11)
	mb.Send(1, 1, 12)
	mb.Send(1, 2, 13)

	var first0, first1 []VertexID
	d0, p0 := mb.Deliver(0, func(v VertexID) { first0 = append(first0, v) })
	d1, p1 := mb.Deliver(1, func(v VertexID) { first1 = append(first1, v) })
	if d0 != 1 || p0 != 1 {
		t.Fatalf("worker 0: delivered %d placed %d", d0, p0)
	}
	if d1 != 3 || p1 != 3 {
		t.Fatalf("worker 1: delivered %d placed %d", d1, p1)
	}
	if !slices.Equal(first0, []VertexID{2}) || !slices.Equal(first1, []VertexID{1}) {
		t.Fatalf("first-mail hooks: %v / %v", first0, first1)
	}
	// Lanes drain in source-worker order.
	if got := mb.Inbox(1); !slices.Equal(got, []int{10, 11, 12}) {
		t.Fatalf("inbox(1) = %v", got)
	}
	if mb.RawCount(1) != 3 || mb.RawCount(2) != 1 {
		t.Fatalf("raw counts %d/%d", mb.RawCount(1), mb.RawCount(2))
	}
}

func TestMailboxSenderSideCombining(t *testing.T) {
	owner := []int32{0, 0, 1}
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	mb := NewMailbox[int](2, owner, min)
	// Three raw messages from worker 0 collapse into one lane slot;
	// worker 1 contributes a fourth that merges at delivery.
	mb.Send(0, 1, 7)
	mb.Send(0, 1, 3)
	mb.Send(0, 1, 9)
	mb.Send(1, 1, 5)
	delivered, placed := mb.Deliver(0, nil)
	if delivered != 4 {
		t.Fatalf("delivered %d raw, want 4", delivered)
	}
	if placed != 1 {
		t.Fatalf("placements %d, want 1", placed)
	}
	if got := mb.Inbox(1); !slices.Equal(got, []int{3}) {
		t.Fatalf("inbox(1) = %v, want [3]", got)
	}
	if mb.RawCount(1) != 4 {
		t.Fatalf("raw count %d, want 4", mb.RawCount(1))
	}
}

func TestMailboxAdvanceInvalidatesCombiningSlots(t *testing.T) {
	owner := []int32{0, 0}
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	mb := NewMailbox[int](1, owner, min)
	// Superstep 1: two sends combine into one slot.
	mb.Send(0, 1, 8)
	mb.Send(0, 1, 6)
	mb.Deliver(0, nil)
	if got := mb.Inbox(1); !slices.Equal(got, []int{6}) || mb.RawCount(1) != 2 {
		t.Fatalf("superstep 1: inbox %v raw %d", got, mb.RawCount(1))
	}
	mb.ResetVertex(1)
	// Superstep 2: without Advance the stale slot would point into the
	// drained lane; with it, sends start a fresh entry and combine anew.
	mb.Advance()
	mb.Send(0, 1, 9)
	mb.Send(0, 1, 4)
	delivered, placed := mb.Deliver(0, nil)
	if delivered != 2 || placed != 1 {
		t.Fatalf("superstep 2: delivered %d placed %d", delivered, placed)
	}
	if got := mb.Inbox(1); !slices.Equal(got, []int{4}) || mb.RawCount(1) != 2 {
		t.Fatalf("superstep 2: inbox %v raw %d", got, mb.RawCount(1))
	}
}

func TestMailboxBufferReuseAcrossSupersteps(t *testing.T) {
	owner := []int32{0, 0}
	mb := NewMailbox[int](1, owner, nil)
	mb.Send(0, 1, 1)
	mb.Deliver(0, nil)
	buf := mb.Inbox(1)
	mb.ResetVertex(1)
	if len(mb.Inbox(1)) != 0 || mb.RawCount(1) != 0 {
		t.Fatal("reset did not clear")
	}
	mb.Send(0, 1, 2)
	mb.Deliver(0, nil)
	if got := mb.Inbox(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("inbox after reuse = %v", got)
	}
	if &buf[:1][0] != &mb.Inbox(1)[0] {
		t.Fatal("inbox backing array was reallocated instead of reused")
	}
}

func TestMailboxLoadVertex(t *testing.T) {
	owner := []int32{0}
	mb := NewMailbox[int](1, owner, nil)
	mb.LoadVertex(0, []int{4, 5}, 2)
	if got := mb.Inbox(0); !slices.Equal(got, []int{4, 5}) || mb.RawCount(0) != 2 {
		t.Fatalf("load: %v raw %d", got, mb.RawCount(0))
	}
}

// verts buckets owner's vertices by worker, as EngineConfig.Prepare
// does.
func verts(owner []int32, workers int) [][]VertexID {
	vs, _, err := groupByOwner(owner, len(owner), workers)
	if err != nil {
		panic(err)
	}
	return vs
}

func TestWorklistsProtocol(t *testing.T) {
	owned := [][]VertexID{{0, 2, 4}, {1, 3, 5}}
	wl := NewWorklists(owned, 6)
	wl.FillAll(owned)
	if wl.Pending() != 6 {
		t.Fatalf("pending %d", wl.Pending())
	}
	wl.Flip()
	if wl.Pending() != 0 {
		t.Fatalf("pending after flip %d", wl.Pending())
	}
	// Worker 0 keeps vertex 2 active; a first-mail hook re-adds 4.
	// Duplicate adds must not double-queue.
	wl.SortCur(0, nil)
	for _, v := range wl.Cur(0) {
		wl.Unmark(v)
	}
	wl.Add(0, 2)
	wl.Add(0, 2)
	wl.Add(0, 4)
	if wl.Pending() != 2 {
		t.Fatalf("pending %d, want 2", wl.Pending())
	}
	if got := wl.Next(0); !slices.Equal(got, []VertexID{2, 4}) {
		t.Fatalf("next(0) = %v", got)
	}
	wl.Flip()
	wl.SortCur(0, nil)
	if got := wl.Cur(0); !slices.Equal(got, []VertexID{2, 4}) {
		t.Fatalf("cur(0) = %v", got)
	}
	wl.Clear()
	if wl.Pending() != 0 {
		t.Fatalf("pending after clear %d", wl.Pending())
	}
	// Cleared queued flags allow re-adding.
	wl.Add(1, 3)
	if wl.Pending() != 1 {
		t.Fatalf("pending %d", wl.Pending())
	}
}

func TestWorklistsSortCurRestoresScanOrder(t *testing.T) {
	wl := NewWorklists([][]VertexID{{0, 1, 2, 3, 4, 5, 6, 7}}, 8)
	for _, v := range []VertexID{5, 1, 7, 3} {
		wl.Add(0, v)
	}
	wl.Flip()
	wl.SortCur(0, nil)
	if got := wl.Cur(0); !slices.Equal(got, []VertexID{1, 3, 5, 7}) {
		t.Fatalf("cur = %v", got)
	}
}

func TestWorklistsSortCurDenseScan(t *testing.T) {
	// A frontier above 1/8 of the owned vertices takes the scan path;
	// both paths must produce the same ascending order.
	owned := []VertexID{0, 2, 4, 6, 8, 10, 12, 14}
	wl := NewWorklists([][]VertexID{owned}, 16)
	for _, v := range []VertexID{10, 2, 14, 6} {
		wl.Add(0, v)
	}
	wl.Flip()
	wl.SortCur(0, owned)
	if got := wl.Cur(0); !slices.Equal(got, []VertexID{2, 6, 10, 14}) {
		t.Fatalf("cur = %v", got)
	}
	// Queued flags are untouched by the rebuild: Unmark/Add still work.
	for _, v := range wl.Cur(0) {
		wl.Unmark(v)
		wl.Add(0, v)
	}
	if wl.Pending() != 4 {
		t.Fatalf("pending %d", wl.Pending())
	}
}

func TestFIFODedupAndOrder(t *testing.T) {
	q := NewFIFO(4)
	q.Push(2)
	q.Push(0)
	q.Push(2) // duplicate while queued: dropped
	if q.Len() != 2 {
		t.Fatalf("len %d", q.Len())
	}
	v, ok := q.Pop()
	if !ok || v != 2 {
		t.Fatalf("pop %v %v", v, ok)
	}
	q.Push(2) // re-push after pop: accepted
	var order []VertexID
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		order = append(order, v)
	}
	if !slices.Equal(order, []VertexID{0, 2}) {
		t.Fatalf("order %v", order)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestFIFOCompactionKeepsOrder(t *testing.T) {
	n := 1000
	q := NewFIFO(n)
	for v := 0; v < n; v++ {
		q.Push(VertexID(v))
	}
	// Interleave pops and re-pushes to force in-place compaction.
	expect := VertexID(0)
	for i := 0; i < 5*n; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatalf("unexpected empty at step %d", i)
		}
		if v != expect%VertexID(n) {
			t.Fatalf("step %d: got %d want %d", i, v, expect%VertexID(n))
		}
		expect++
		q.Push(v) // immediately re-activate, FIFO order must hold
	}
}

// fifoOps are the worklist operations fifoRounds drives.
type fifoOps interface {
	Push(VertexID)
	PushAll([]VertexID)
	Pop() (VertexID, bool)
}

// refFIFO is the plain deduplicating queue a FIFO must agree with.
type refFIFO struct {
	q      []VertexID
	queued map[VertexID]bool
}

func (r *refFIFO) Push(v VertexID) {
	if !r.queued[v] {
		r.queued[v] = true
		r.q = append(r.q, v)
	}
}

func (r *refFIFO) PushAll(vs []VertexID) {
	for _, v := range vs {
		r.Push(v)
	}
}

func (r *refFIFO) Pop() (VertexID, bool) {
	if len(r.q) == 0 {
		return 0, false
	}
	v := r.q[0]
	r.q = r.q[1:]
	r.queued[v] = false
	return v, true
}

// fifoRounds drives q through a seeded sequence of PushAll, Push and
// Pop over n vertices, handing each pop to popped; batch is scratch of
// 2n entries.
func fifoRounds(q fifoOps, n, rounds int, batch []VertexID, popped func(VertexID, bool)) {
	x := uint64(1)
	next := func(k int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(k))
	}
	for r := 0; r < rounds; r++ {
		switch next(3) {
		case 0:
			b := batch[:next(2*n)]
			for i := range b {
				b[i] = VertexID(next(n))
			}
			q.PushAll(b)
		case 1:
			q.Push(VertexID(next(n)))
		default:
			for k := next(n); k > 0; k-- {
				popped(q.Pop())
			}
		}
	}
}

// TestFIFORingAllocatesNothing: dedup keeps at most n vertices queued,
// so from NewFIFO(n) on a seeded sequence of pushes and pops stays
// inside the ring and allocates nothing, and its pops come out in the
// order a plain deduplicating queue gives them.
func TestFIFORingAllocatesNothing(t *testing.T) {
	const n, rounds = 1000, 3000
	batch := make([]VertexID, 2*n)
	var got, want []VertexID
	q := NewFIFO(n)
	fifoRounds(q, n, rounds, batch, func(v VertexID, ok bool) {
		if ok {
			got = append(got, v)
		}
	})
	fifoRounds(&refFIFO{queued: map[VertexID]bool{}}, n, rounds, batch, func(v VertexID, ok bool) {
		if ok {
			want = append(want, v)
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("%d pops differ from the reference queue's %d", len(got), len(want))
	}
	q.Release()
	fresh := []*FIFO{NewFIFO(n), NewFIFO(n)} // AllocsPerRun warms up on the first
	if avg := testing.AllocsPerRun(1, func() {
		fifoRounds(fresh[0], n, rounds, batch, func(VertexID, bool) {})
		fresh = fresh[1:]
	}); avg != 0 {
		t.Fatalf("%d rounds of pushes and pops allocate %.0f times, want 0", rounds, avg)
	}
}
