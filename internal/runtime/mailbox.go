package runtime

import (
	"slices"

	"vcgraph/internal/graph"
)

// VertexID aliases graph.VertexID.
type VertexID = graph.VertexID

// entry is one outbox lane slot: a destination vertex, the number of
// raw messages folded into it (what the BSP model's h charges — Stats
// are always recorded pre-combining), and the possibly sender-side
// combined message. int32 suffices: one entry folds only one worker's
// sends to one vertex in one superstep. With an 8-byte M it is 16 bytes.
type entry[M any] struct {
	dst VertexID
	raw int32
	m   M
}

// lane is the outbox of one (src worker, dst worker) pair. The slice
// keeps its capacity across supersteps.
type lane[M any] struct {
	entries []entry[M]
}

// push appends one raw message and returns its entry index. The lane
// grows by doubling: append's ~1.25× growth of large slices allocates
// about 5× the final size on the way up.
func (ln *lane[M]) push(dst VertexID, m M) int32 {
	if n := len(ln.entries); n == cap(ln.entries) {
		ln.entries = slices.Grow(ln.entries, max(n, 16))
	}
	ln.entries = append(ln.entries, entry[M]{dst: dst, raw: 1, m: m})
	return int32(len(ln.entries) - 1)
}

// Mailbox is a sharded message store for P workers over n vertices:
// P×P outbox lanes plus flat inboxes. The sharding makes both phases
// race-free by construction: during compute, worker w appends only to
// lanes (w, *); during delivery, worker w drains only lanes (*, w) and
// touches only inboxes of vertices it owns. Each lane and each worker's
// delivery state sits in its own PerWorker slot, so neither phase has
// two workers writing one cache line.
//
// No inbox owns an allocation: with a combiner v's inbox is slot[v],
// else a run of its owner's slab, which delivery fills by counting-
// sorting the incoming lanes by destination (int32 offsets: under 2^31
// messages per worker per superstep). All buffers keep their capacity,
// so a steady-state superstep allocates nothing on the message path.
// The lanes, slabs and receiver lists come from the run-buffer cache
// and go back to it on Release, so they keep their capacity across
// runs too; so do the per-vertex arrays, which are taken by length.
type Mailbox[M any] struct {
	workers int
	owner   []int32 // vertex -> owning worker
	comb    func(a, b M) M

	lanes   []Padded[lane[M]] // lane (src, dst) at src*workers+dst
	rawRecv []int64           // raw (pre-combining) messages delivered per vertex
	cnt     []int32           // messages in v's inbox

	slot  []M                  // combiner only
	off   []int32              // no combiner: start of v's run
	inbox []Padded[inboxOf[M]] // per worker

	// Sender-side combining index (combiner installed only): idx[src][v]
	// holds the entry index of v in lane (src, owner[v]), valid while
	// its tag == epoch. The epoch tag makes invalidation at the
	// superstep barrier O(1) instead of an O(sent) map clear, and a send
	// reads one index cell instead of a hashed map probe.
	idx   [][]combIdx
	epoch uint32
}

// inboxOf is one worker's delivery state.
type inboxOf[M any] struct {
	recv []VertexID // vertices the current delivery places
	slab []M        // no combiner: its vertices' runs
}

// combIdx is one cell of the sender-side combining index.
type combIdx struct {
	tag  uint32
	slot int32
}

// NewMailbox builds a mailbox for len(owner) vertices sharded over
// workers. comb, when non-nil, is applied sender-side in the outbox
// lanes and receiver-side across lanes, exactly mirroring the result
// of combining at delivery time (the combiner contract requires
// associativity and commutativity).
func NewMailbox[M any](workers int, owner []int32, comb func(a, b M) M) *Mailbox[M] {
	n := len(owner)
	mb := &Mailbox[M]{
		workers: workers,
		owner:   owner,
		comb:    comb,
		lanes:   PerWorker[lane[M]](workers * workers),
		rawRecv: TakeArray[int64](n),
		cnt:     TakeArray[int32](n),
		inbox:   PerWorker[inboxOf[M]](workers),
	}
	for i := range mb.lanes {
		mb.lanes[i].V.entries = takeSlice[entry[M]]()
	}
	for w := range mb.inbox {
		in := &mb.inbox[w].V
		in.recv = takeSlice[VertexID]()
		if comb == nil {
			in.slab = takeSlice[M]()
		}
	}
	if comb == nil {
		mb.off = TakeArray[int32](n)
		return mb
	}
	mb.slot = TakeArray[M](n)
	// A taken index is all zeros, so no tag matches the first epoch.
	mb.epoch = 1
	mb.idx = make([][]combIdx, workers)
	for src := range mb.idx {
		mb.idx[src] = TakeArray[combIdx](n)
	}
	return mb
}

// Release gives the lanes, slabs and receiver lists back to the
// run-buffer cache, emptied whatever state the run ended in, in the
// order NewMailbox took them, and the per-vertex arrays zeroed. The
// mailbox must not be used afterwards. Release is idempotent.
func (mb *Mailbox[M]) Release() {
	for i := range mb.lanes {
		keepSlice(mb.lanes[i].V.entries)
		mb.lanes[i].V.entries = nil
	}
	for w := range mb.inbox {
		in := &mb.inbox[w].V
		keepSlice(in.recv)
		keepSlice(in.slab)
		in.recv, in.slab = nil, nil
	}
	KeepArray(mb.rawRecv)
	KeepArray(mb.cnt)
	KeepArray(mb.off)
	KeepArray(mb.slot)
	for _, t := range mb.idx {
		KeepArray(t)
	}
	mb.rawRecv, mb.cnt, mb.off, mb.slot, mb.idx = nil, nil, nil, nil, nil
}

// Advance invalidates the sender-side combining index. The engine must
// call it once per superstep, single-threaded at the barrier, so that
// sends of consecutive compute phases never combine into stale slots.
func (mb *Mailbox[M]) Advance() {
	if mb.comb == nil {
		return
	}
	mb.epoch++
	if mb.epoch == 0 { // wrapped: reset tags so stale slots cannot alias
		for _, t := range mb.idx {
			clear(t)
		}
		mb.epoch = 1
	}
}

// lane returns the outbox of the (src, dst) worker pair.
func (mb *Mailbox[M]) lane(src, dst int) *lane[M] { return &mb.lanes[src*mb.workers+dst].V }

// Owner returns the worker owning vertex v.
func (mb *Mailbox[M]) Owner(v VertexID) int { return int(mb.owner[v]) }

// Send records one raw message from src worker to vertex dst. With a
// combiner installed the message may fold into an existing lane slot
// (sender-side combining); the slot's raw count still grows by one.
func (mb *Mailbox[M]) Send(src int, dst VertexID, m M) {
	mb.SendAll(src, []VertexID{dst}, m)
}

// SendAll records one raw message from src worker to each vertex in
// dsts — the broadcast a vertex program's send-to-all-neighbors issues,
// with dsts typically a CSR adjacency span. Semantically identical to
// calling Send per destination; the per-send lane/tag/slot lookups are
// hoisted out of the loop.
func (mb *Mailbox[M]) SendAll(src int, dsts []VertexID, m M) {
	lanes := mb.lanes[src*mb.workers : (src+1)*mb.workers]
	owner := mb.owner
	if mb.comb == nil {
		for _, dst := range dsts {
			lanes[owner[dst]].V.push(dst, m)
		}
		return
	}
	idx, epoch, comb := mb.idx[src], mb.epoch, mb.comb
	for _, dst := range dsts {
		ln := &lanes[owner[dst]].V
		if c := &idx[dst]; c.tag == epoch {
			e := &ln.entries[c.slot]
			e.m = comb(e.m, m)
			e.raw++
			continue
		}
		idx[dst] = combIdx{tag: epoch, slot: ln.push(dst, m)}
	}
}

// Deliver drains every lane addressed to worker w, in source-worker
// order, into the inboxes of w's vertices. onFirstMail, when non-nil,
// fires once per vertex whose raw-received count transitions from
// zero (its hook into the active-vertex worklist). It returns the raw
// message count delivered and the number of inbox placements after
// combining (placements == delivered when no combiner is installed).
func (mb *Mailbox[M]) Deliver(w int, onFirstMail func(VertexID)) (delivered, placements int64) {
	delivered, placements, _ = mb.DeliverFaulty(w, 0, nil, onFirstMail)
	return delivered, placements
}

// DeliverFaulty is Deliver under fault injection: before draining each
// lane (src → w) it consults the injector for a lane fault at the
// given barrier. A dropped lane's batch is discarded in transit and
// reported via dropped — the engine must roll back, because the
// messages are unrecoverable. A duplicated lane's batch is redelivered
// after the original; batches carry per-lane sequence numbers, so the
// replay fails the receiver's sequence check and is discarded without
// touching any inbox (the injector tallies the rejected duplicate). A
// nil injector makes this identical to Deliver. Without a combiner the
// drain only counts per destination, whose count is then also its raw
// count; scatter then fires the hooks and places the messages.
func (mb *Mailbox[M]) DeliverFaulty(w, step int, inj *Injector, onFirstMail func(VertexID)) (delivered, placements int64, dropped bool) {
	in := &mb.inbox[w].V
	recv := in.recv[:0]
	for src := 0; src < mb.workers; src++ {
		ln := mb.lane(src, w)
		if inj != nil {
			switch inj.LaneFault(step, src, w) {
			case FaultDropLane:
				// The batch is lost in transit: the receiver notices
				// the missing sequence number at the barrier and the
				// engine rolls back to its last checkpoint.
				ln.entries = ln.entries[:0]
				dropped = true
				continue
			case FaultDupLane:
				// The batch arrives twice. The first copy is delivered
				// below; the replay carries an already-seen sequence
				// number and is rejected, so delivery stays exactly-once.
			}
		}
		if mb.comb == nil {
			// Each entry is one raw message: count it, and list the
			// vertex on its first arrival.
			for i := range ln.entries {
				v := ln.entries[i].dst
				if mb.cnt[v]++; mb.cnt[v] == 1 {
					recv = append(recv, v)
				}
			}
			continue
		}
		for i := range ln.entries {
			e := &ln.entries[i]
			mb.note(e.dst, int64(e.raw), onFirstMail)
			delivered += int64(e.raw)
			placements += mb.fold(e.dst, e.m)
		}
		ln.entries = ln.entries[:0]
	}
	in.recv = recv
	if mb.comb == nil {
		placements = mb.scatter(w, recv, onFirstMail)
		delivered = placements
	}
	return delivered, placements, dropped
}

// scatter is pass 2 of a combiner-less delivery to worker w. Walking
// the receivers in first-arrival order, it credits each one's count as
// raw messages (firing the first-mail hook as note does) and gives it
// its run of w's slab; then it copies the lanes' messages into the runs
// in source-worker lane order — the order the inbox would have been
// appended in — and drains the lanes.
func (mb *Mailbox[M]) scatter(w int, recv []VertexID, onFirstMail func(VertexID)) (placements int64) {
	var at int32
	for _, v := range recv {
		c := mb.cnt[v]
		mb.note(v, int64(c), onFirstMail)
		mb.off[v] = at
		at += c
		mb.cnt[v] = 0
	}
	// Refilling the slab from the start is sound only because every
	// vertex holding mail computed and called ResetVertex in the
	// superstep before this delivery: no live inbox points into it.
	in := &mb.inbox[w].V
	slab := slices.Grow(in.slab[:0], int(at))[:at]
	for src := 0; src < mb.workers; src++ {
		ln := mb.lane(src, w)
		for i := range ln.entries {
			e := &ln.entries[i]
			slab[mb.off[e.dst]+mb.cnt[e.dst]] = e.m
			mb.cnt[e.dst]++
		}
		ln.entries = ln.entries[:0]
	}
	in.slab = slab
	return int64(at)
}

// note counts raw messages reaching v, firing the first-mail hook on
// v's zero→nonzero transition.
func (mb *Mailbox[M]) note(v VertexID, raw int64, onFirstMail func(VertexID)) {
	if mb.rawRecv[v] == 0 && onFirstMail != nil {
		onFirstMail(v)
	}
	mb.rawRecv[v] += raw
}

// fold places m into v's combiner slot, combining with the message
// already there. It returns the number of new placements (0 or 1).
func (mb *Mailbox[M]) fold(v VertexID, m M) int64 {
	if mb.cnt[v] != 0 {
		mb.slot[v] = mb.comb(mb.slot[v], m)
		return 0
	}
	mb.slot[v], mb.cnt[v] = m, 1
	return 1
}

// DepositPulled merges one gathered accumulator value into v's inbox,
// exactly as delivering a single combined lane entry carrying raw
// pre-combining messages would: the first-mail hook fires on the
// zero→nonzero raw transition, the raw count reaches RawCount, and
// the value folds into v's combiner slot. It returns the number of
// inbox placements (0 when the value was folded into an occupied
// slot). It needs a combiner (pulling does), and only v's owning
// worker may call it, during the delivery phase — the same sharding
// discipline as DeliverFaulty.
func (mb *Mailbox[M]) DepositPulled(v VertexID, m M, raw int64, onFirstMail func(VertexID)) (placements int64) {
	mb.note(v, raw, onFirstMail)
	return mb.fold(v, m)
}

// Inbox returns v's delivered messages. The slice is valid until v's
// next ResetVertex/LoadVertex or the next delivery to its owner, and
// must not be retained across supersteps (its backing array is
// reused).
func (mb *Mailbox[M]) Inbox(v VertexID) []M {
	c := mb.cnt[v]
	switch {
	case c == 0:
		return nil
	case mb.comb != nil:
		return mb.slot[v : v+1 : v+1]
	}
	o := mb.off[v]
	return mb.inbox[mb.owner[v]].V.slab[o : o+c : o+c]
}

// RawCount returns the raw (pre-combining) number of messages
// delivered to v in the last delivery phase.
func (mb *Mailbox[M]) RawCount(v VertexID) int64 { return mb.rawRecv[v] }

// ResetVertex empties v's inbox. Its storage stays with the mailbox.
func (mb *Mailbox[M]) ResetVertex(v VertexID) {
	mb.cnt[v] = 0
	mb.rawRecv[v] = 0
}

// LoadVertex replaces v's inbox contents and raw count (checkpoint
// recovery, which is serial). With a combiner msgs fold left into v's
// slot; without one they are appended to the owner's slab.
func (mb *Mailbox[M]) LoadVertex(v VertexID, msgs []M, raw int64) {
	mb.rawRecv[v] = raw
	mb.cnt[v] = 0
	if mb.comb != nil {
		for _, m := range msgs {
			mb.fold(v, m)
		}
		return
	}
	in := &mb.inbox[mb.owner[v]].V
	mb.off[v] = int32(len(in.slab))
	in.slab = append(in.slab, msgs...)
	mb.cnt[v] = int32(len(msgs))
}
