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
// for v, in whichever phase it runs. With dedup a worker's list never
// holds more than the vertices it owns, so both of its lists are taken
// at that length from the run-buffer cache and never grow.
type Worklists struct {
	lists  []Padded[workList] // per worker, each on its own lines
	queued []bool             // vertex is in next
}

// workList is one worker's pair of lists, cut from the two arrays it
// took.
type workList struct {
	cur  []VertexID // drained this superstep
	next []VertexID // built for the next superstep
	bufs [2][]VertexID
}

// NewWorklists builds empty worklists over n vertices for the workers
// that own verts (worker -> owned vertices). Release gives their
// arrays back.
func NewWorklists(verts [][]VertexID, n int) *Worklists {
	wl := &Worklists{
		lists:  PerWorker[workList](len(verts)),
		queued: TakeArray[bool](n),
	}
	for w, owned := range verts {
		l := &wl.lists[w].V
		for i := range l.bufs {
			l.bufs[i] = TakeArray[VertexID](len(owned))
		}
		l.cur, l.next = l.bufs[0][:0], l.bufs[1][:0]
	}
	return wl
}

// Release gives the lists' and flags' arrays back to the run-buffer
// cache, zeroed. The worklists must not be used afterwards. Release is
// idempotent.
func (wl *Worklists) Release() {
	for w := range wl.lists {
		l := &wl.lists[w].V
		for i, b := range l.bufs {
			KeepArray(b)
			l.bufs[i] = nil
		}
		l.cur, l.next = nil, nil
	}
	KeepArray(wl.queued)
	wl.queued = nil
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
// unless it is already waiting; Pop dequeues in arrival order. Dedup
// keeps at most n vertices queued, so the queue is a ring over n slots
// that never grows: a long drain with re-activations allocates
// nothing. Both arrays come from the run-buffer cache; Release gives
// them back.
type FIFO struct {
	ring   []VertexID
	queued []bool
	head   int // ring index of the oldest vertex
	n      int // queued vertices
}

// NewFIFO builds an empty worklist over n vertices.
func NewFIFO(n int) *FIFO {
	return &FIFO{ring: TakeArray[VertexID](n), queued: TakeArray[bool](n)}
}

// Release gives the worklist's arrays back to the run-buffer cache,
// zeroed. The worklist must not be used afterwards. Release is
// idempotent.
func (q *FIFO) Release() {
	KeepArray(q.ring)
	KeepArray(q.queued)
	q.ring, q.queued, q.head, q.n = nil, nil, 0, 0
}

// Push enqueues v unless it is already queued.
func (q *FIFO) Push(v VertexID) { q.PushAll([]VertexID{v}) }

// PushAll enqueues each vertex of vs in order, skipping already-queued
// ones, with the dedup-flag and ring lookups kept in registers across
// the batch (the bulk activation path of the asynchronous engine).
func (q *FIFO) PushAll(vs []VertexID) {
	ring, queued := q.ring, q.queued
	tail := q.head + q.n
	if tail >= len(ring) {
		tail -= len(ring)
	}
	for _, v := range vs {
		if queued[v] {
			continue
		}
		queued[v] = true
		ring[tail] = v
		if tail++; tail == len(ring) {
			tail = 0
		}
		q.n++
	}
}

// Pop dequeues the oldest vertex; ok is false when the list is empty.
func (q *FIFO) Pop() (v VertexID, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	v = q.ring[q.head]
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	q.queued[v] = false
	return v, true
}

// Len returns the number of queued vertices.
func (q *FIFO) Len() int { return q.n }

// SnapshotInto copies the queued vertices in arrival order into out,
// which must be Len() long, and returns it (checkpoint support for the
// asynchronous engine). The copy is independent of the live ring.
func (q *FIFO) SnapshotInto(out []VertexID) []VertexID {
	k := copy(out, q.ring[q.head:min(q.head+q.n, len(q.ring))])
	copy(out[k:], q.ring)
	return out
}

// Load replaces the queue contents with vs, in order (checkpoint
// recovery). The ring and dedup flags are reused.
func (q *FIFO) Load(vs []VertexID) {
	clear(q.queued)
	q.head, q.n = 0, 0
	q.PushAll(vs)
}
