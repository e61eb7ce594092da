package runtime

import "slices"

// Worklists tracks the active vertices of a BSP engine, sharded per
// worker: a superstep iterates only over vertices that are active or
// have mail instead of rescanning all n vertices, and the engine's
// "any vertex still active?" question becomes an O(P) counter read
// instead of an O(n) scan.
//
// Protocol per superstep:
//
//	wl.Flip()                       // barrier: next becomes current
//	worker w: wl.SortCur(w)         // deterministic ascending order
//	          for v := range Cur(w):
//	              wl.Unmark(v)
//	              ... compute v ...
//	              if still active: wl.Add(w, v)
//	delivery: wl.Add(owner, v) for each vertex receiving first mail
//
// Add deduplicates via a per-vertex queued flag, so a vertex that both
// stays active and receives mail is processed once. Sharding makes the
// writes race-free: only vertex v's owning worker calls Unmark/Add
// for v, in whichever phase it runs.
type Worklists struct {
	lists  []Padded[workList] // per worker, each on its own lines
	queued []bool             // vertex is in next
}

// workList is one worker's pair of lists.
type workList struct {
	cur  []VertexID // drained this superstep
	next []VertexID // built for the next superstep
}

// NewWorklists builds empty worklists for P workers over n vertices.
func NewWorklists(workers, n int) *Worklists {
	return &Worklists{
		lists:  PerWorker[workList](workers),
		queued: make([]bool, n),
	}
}

// Flip swaps next into current (superstep barrier). Must be called
// single-threaded between phases.
func (wl *Worklists) Flip() {
	for w := range wl.lists {
		l := &wl.lists[w].V
		l.cur, l.next = l.next, l.cur[:0]
	}
}

// Cur returns worker w's vertices for the current superstep.
func (wl *Worklists) Cur(w int) []VertexID { return wl.lists[w].V.cur }

// SortCur puts worker w's current list in ascending order, reproducing
// the deterministic vertex order of a full partition scan. Safe to call
// from worker w itself, and only valid immediately after Flip (before
// any Unmark/Add), when the queued flags still mark exactly the members
// of cur: a dense frontier is then rebuilt by scanning owned (the
// worker's vertices in ascending order) — O(|owned|) — instead of
// paying an O(f log f) comparison sort. owned may be nil to force the
// sort path.
func (wl *Worklists) SortCur(w int, owned []VertexID) {
	l := &wl.lists[w].V
	if len(l.cur)*8 >= len(owned) && len(owned) > 0 {
		cur := l.cur[:0]
		for _, v := range owned {
			if wl.queued[v] {
				cur = append(cur, v)
			}
		}
		l.cur = cur
		return
	}
	slices.Sort(l.cur)
}

// Unmark clears v's queued flag; called by v's owner right before
// computing v so the vertex can re-queue itself for the next round.
func (wl *Worklists) Unmark(v VertexID) { wl.queued[v] = false }

// Add queues v on worker w's next list unless it is already queued.
// Only v's owning worker may call Add(w, v).
func (wl *Worklists) Add(w int, v VertexID) {
	if wl.queued[v] {
		return
	}
	wl.queued[v] = true
	l := &wl.lists[w].V
	l.next = append(l.next, v)
}

// Pending returns the number of vertices queued for the next
// superstep (O(P)).
func (wl *Worklists) Pending() int {
	total := 0
	for w := range wl.lists {
		total += len(wl.lists[w].V.next)
	}
	return total
}

// Next returns worker w's queued vertices for the next superstep
// (read-only; used by finishing-computations-serially to enumerate the
// remaining frontier without an O(n) scan).
func (wl *Worklists) Next(w int) []VertexID { return wl.lists[w].V.next }

// FillAll replaces the next-superstep lists with every vertex, sharded
// by verts (worker -> owned vertices). Used at run start and by the
// master's ActivateAll.
func (wl *Worklists) FillAll(verts [][]VertexID) {
	for w := range wl.lists {
		l := &wl.lists[w].V
		l.next = append(l.next[:0], verts[w]...)
	}
	for i := range wl.queued {
		wl.queued[i] = true
	}
}

// Clear empties the next-superstep lists (checkpoint recovery rebuilds
// from scratch; FCS terminates the run).
func (wl *Worklists) Clear() {
	for w := range wl.lists {
		l := &wl.lists[w].V
		l.next = l.next[:0]
	}
	for i := range wl.queued {
		wl.queued[i] = false
	}
}

// FIFO is a deduplicating first-in-first-out vertex worklist — the
// scheduler core of the asynchronous engine. Push enqueues a vertex
// unless it is already waiting; Pop dequeues in arrival order. The
// backing buffer is compacted in place instead of reallocated, so a
// long drain with re-activations allocates only when the high-water
// mark grows.
type FIFO struct {
	buf    []VertexID
	queued []bool
	head   int
}

// NewFIFO builds an empty worklist over n vertices.
func NewFIFO(n int) *FIFO {
	return &FIFO{buf: make([]VertexID, 0, n), queued: make([]bool, n)}
}

// Push enqueues v unless it is already queued.
func (q *FIFO) Push(v VertexID) {
	if q.queued[v] {
		return
	}
	q.queued[v] = true
	q.buf = append(q.buf, v)
}

// PushAll enqueues each vertex of vs in order, skipping already-queued
// ones — semantically identical to calling Push per element, with the
// dedup-flag and buffer lookups kept in registers across the batch
// (the bulk activation path of the asynchronous engine's dense rounds).
func (q *FIFO) PushAll(vs []VertexID) {
	buf, queued := q.buf, q.queued
	for _, v := range vs {
		if queued[v] {
			continue
		}
		queued[v] = true
		buf = append(buf, v)
	}
	q.buf = buf
}

// Pop dequeues the oldest vertex; ok is false when the list is empty.
func (q *FIFO) Pop() (v VertexID, ok bool) {
	if q.head >= len(q.buf) {
		return 0, false
	}
	v = q.buf[q.head]
	q.head++
	q.queued[v] = false
	if q.head > 64 && q.head*2 >= len(q.buf) {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	return v, true
}

// Len returns the number of queued vertices.
func (q *FIFO) Len() int { return len(q.buf) - q.head }

// Snapshot returns the queued vertices in arrival order (checkpoint
// support for the asynchronous engine). The copy is independent of the
// live buffer.
func (q *FIFO) Snapshot() []VertexID {
	return append([]VertexID(nil), q.buf[q.head:]...)
}

// Load replaces the queue contents with vs, in order (checkpoint
// recovery). The backing buffer and dedup flags are reused.
func (q *FIFO) Load(vs []VertexID) {
	clear(q.queued)
	q.buf = q.buf[:0]
	q.head = 0
	for _, v := range vs {
		q.Push(v)
	}
}
