// Package blockcentric implements a minimal subgraph-centric ("think
// like a graph", Giraph++ / NScale style) BSP engine: the graph is
// partitioned into blocks, and in each superstep a user program runs
// an arbitrary *sequential* computation over a whole block — seeing
// every block-local vertex and edge at once — then exchanges messages
// only across block boundaries. The paper's conclusion names this
// model as the main alternative when vertex-centric algorithms drown
// in supersteps or message volume; the package exists so that claim
// can be measured (see the block-centric connected components below
// and the comparison in internal/core).
package blockcentric

import (
	"slices"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// VertexID aliases graph.VertexID.
type VertexID = graph.VertexID

// Program is a block program: Init seeds per-vertex values;
// ComputeBlock runs once per block per superstep with the messages
// addressed to the block's vertices, folded by Combine on arrival into
// one value per recipient. A recipient's first message is stored as
// is and each later one folded in with Combine(acc, m), in arrival
// order: a pulling block's own sends first, then the boundary lanes in
// source-block order, each in send order. The Inbox is owned by the
// engine and reused across supersteps; ComputeBlock must not retain it
// after returning.
type Program[V, M any] interface {
	Init(g *graph.Graph, id VertexID) V
	Combine(a, b M) M
	ComputeBlock(ctx *BlockContext[V, M], in *Inbox[M])
}

// Config is the block-centric engine's run environment, the one every
// engine shares (runtime.EngineConfig states what each field means
// here: Workers is the block count, each block runs on its own worker,
// and the default partition is range, which keeps blocks contiguous —
// the usual choice for this model).
type Config = rt.EngineConfig

// ErrSuperstepCap mirrors pregel.ErrSuperstepCap. It aliases
// bsp.ErrSuperstepCap, the sentinel shared by every engine, so
// errors.Is works across engines.
var ErrSuperstepCap = bsp.ErrSuperstepCap

// Result of a block-centric run.
type Result[V any] struct {
	Values []V
	Stats  *bsp.Stats // Workers = #blocks; messages are inter-block only
}

// Engine executes a block Program.
type Engine[V, M any] struct {
	g    *graph.Graph
	csr  *graph.CSR
	prog Program[V, M]
	cfg  Config // resolved by Prepare; Workers is the block count
	// prepared holds the pin and the driver config; nil when prepare
	// failed with err, which Run then returns.
	prepared *rt.Prepared
	err      error
	owner    []int32
	blocks   [][]VertexID
	// local maps a vertex to its position in its block (its local id):
	// the index of every per-block slab below. It, each block's inbox
	// slots and each block's marks are taken from the run-buffer cache
	// and given back when Run ends; values, the run's result, is not.
	local  []int32
	slots  [][]struct{ at, n int32 } // per block: the slots of its two inboxes
	values []V
	halted []bool // per block
	stats  *bsp.Stats
	driver *rt.Driver[*bcSnapshot[V, M]]
	// drain is drainLanes, bound once so the drain phase's dispatch
	// allocates no method value per superstep.
	drain func(d int)

	// ctx holds each block's BlockContext, the state its goroutine
	// writes on every send, in its own PerWorker slot. Its growable
	// buffers keep their capacity across supersteps, and across runs:
	// bufs are the cached sets they came from (see blockBufs).
	ctx  []rt.Padded[BlockContext[V, M]]
	bufs []*blockBufs[M]

	// dirtyBlocks marks the blocks whose state diverged from the last
	// checkpoint frame: a block is dirty once it computes (values, halt
	// flag, inbox consumption) or receives a boundary message. Each
	// parallel phase writes only its goroutine's own block; Snapshot
	// and Restore clear it.
	dirtyBlocks []bool

	// Block-local pull state. pullBlock says, per block, whether its
	// intra-block sends skip the lanes (all true under DirectionPull,
	// all false under DirectionPush, decided per block from the local
	// edge fraction under DirectionAuto): a pulling block folds its
	// sends to its own vertices straight into its own next inbox during
	// ComputeBlock. inboxLocal counts how many of the messages pending
	// for each block arrived that way, so Recv can be reported
	// boundary-only.
	pullBlock  []bool
	anyPull    bool
	inboxLocal []int64

	// scratch holds each block's span-decode buffers: ComputeBlock runs
	// one goroutine per block, and every program consumes one Out span
	// at a time, so one Scratch per block suffices. Nil-buffered (and
	// unused) on flat snapshots.
	scratch []*graph.Scratch
}

// bcSnapshot is one checkpoint frame: the barrier state entering a
// superstep (boundary messages already delivered) of the blocks it
// lists ascending in blocks (nil: every block). blockVals holds each
// listed block's member values, and halted/inbox/inboxLocal are
// indexed by position in blocks.
type bcSnapshot[V, M any] struct {
	blocks     []int
	blockVals  [][]V
	halted     []bool
	inbox      []inboxFrame[M]
	inboxLocal []int64
}

// inboxFrame is a block's next inbox: the recipients in first-arrival
// order, each one's raw message count, and each one's folded value.
type inboxFrame[M any] struct {
	verts []VertexID
	n     []int32
	vals  []M
}

// addr is a message in a lane, with the vertex it is addressed to.
type addr[M any] struct {
	dst VertexID
	m   M
}

// blockBufs is one block's growable buffers. An engine takes its sets,
// one per block in block order, from the run-buffer cache as one
// buffer, and gives them back when its run ends, so the capacity one
// run's first superstep grew serves the next run instead of being
// grown again as garbage. Taken as one, block b's set goes back to
// block b of the next run whatever ran in between; a run with fewer
// blocks carries the surplus sets through.
type blockBufs[M any] struct {
	outbox        [][]addr[M]
	verts         [2][]VertexID
	vals          [2][]M
	marked, queue []VertexID
}

// empty truncates every buffer and zeroes the message-bearing ones'
// backing arrays, so the cache keeps no reference into the run's
// messages, and returns the bytes the buffers hold.
func (l *blockBufs[M]) empty() int64 {
	outbox := l.outbox[:cap(l.outbox)]
	bytes := rt.SizeOf[[]addr[M]]() * int64(len(outbox))
	for d, lane := range outbox {
		clear(lane[:cap(lane)])
		outbox[d] = lane[:0]
		bytes += rt.SizeOf[addr[M]]() * int64(cap(lane))
	}
	for i := range l.vals {
		clear(l.vals[i][:cap(l.vals[i])])
		l.vals[i] = l.vals[i][:0]
		bytes += rt.SizeOf[M]() * int64(cap(l.vals[i]))
	}
	for _, s := range []*[]VertexID{&l.verts[0], &l.verts[1], &l.marked, &l.queue} {
		*s = (*s)[:0]
		bytes += rt.SizeOf[VertexID]() * int64(cap(*s))
	}
	return bytes
}

// Inbox is one block's messages for one superstep, folded by recipient
// on arrival: filling and emptying it costs the messages, never the
// block size.
type Inbox[M any] struct {
	local   []int32 // the engine's vertex -> local id map
	combine func(a, b M) M
	// slot holds, per local id, the recipient's index in verts and vals
	// and its raw message count; n is zero for every vertex without
	// messages.
	slot  []struct{ at, n int32 }
	verts []VertexID // recipients in first-arrival order
	vals  []M        // vals[i] is the fold of verts[i]'s messages
	total int64      // raw messages folded since the last reset
}

// Message returns the fold of the messages addressed to v, a vertex of
// the block, and how many there were (the zero M and 0 when none).
func (in *Inbox[M]) Message(v VertexID) (M, int32) {
	s := in.slot[in.local[v]]
	if s.n == 0 {
		var zero M
		return zero, 0
	}
	return in.vals[s.at], s.n
}

// Vertices lists the block's vertices that have messages, in the order
// their first message arrived.
func (in *Inbox[M]) Vertices() []VertexID { return in.verts }

// fold adds m, addressed to v, to the inbox.
func (in *Inbox[M]) fold(v VertexID, m M) {
	s := &in.slot[in.local[v]]
	if s.n == 0 {
		s.at = int32(len(in.verts))
		in.verts = append(in.verts, v)
		in.vals = append(in.vals, m)
	} else {
		in.vals[s.at] = in.combine(in.vals[s.at], m)
	}
	s.n++
	in.total++
}

// reset empties the inbox, touching only the slots of its recipients.
func (in *Inbox[M]) reset() {
	for _, v := range in.verts {
		in.slot[in.local[v]].n = 0
	}
	in.verts, in.vals, in.total = in.verts[:0], in.vals[:0], 0
}

// NewEngine builds the engine and materializes the block partition:
// the prepare phase. It pins the graph's CSR snapshot and seeds every
// vertex value with prog.Init — every read of the mutable graph
// happens here, so a serving layer can construct engines under a graph
// read lock and Run them lock-free while writers mutate and republish.
func NewEngine[V, M any](g *graph.Graph, prog Program[V, M], cfg Config) *Engine[V, M] {
	p, err := cfg.Prepare(g, rt.EngineDefaults{
		Name:      "blockcentric",
		Workers:   4,
		Cap:       func(n int) int { return 1 + 10*(n+64) },
		Partition: func(c *graph.CSR, w int) []int32 { return rt.PartitionRangeN(c.N(), w) },
	})
	if err != nil {
		return &Engine[V, M]{err: err}
	}
	cfg = p.Driver.EngineConfig
	csr, n, nb := p.CSR, p.CSR.N(), cfg.Workers
	e := &Engine[V, M]{
		g:          g,
		csr:        csr,
		prog:       prog,
		cfg:        cfg,
		prepared:   p,
		owner:      p.Owner,
		blocks:     p.Verts,
		local:      rt.TakeArray[int32](n),
		slots:      make([][]struct{ at, n int32 }, nb),
		values:     make([]V, n),
		halted:     make([]bool, nb),
		ctx:        rt.PerWorker[BlockContext[V, M]](nb),
		stats:      &bsp.Stats{Workers: nb, N: n},
		inboxLocal: make([]int64, nb),
	}
	e.bufs, _ = rt.TakeRunBuffer[[]*blockBufs[M]]()
	for len(e.bufs) < nb {
		e.bufs = append(e.bufs, new(blockBufs[M]))
	}
	combine := prog.Combine
	inbox := func(slot []struct{ at, n int32 }, verts []VertexID, vals []M) Inbox[M] {
		return Inbox[M]{local: e.local, combine: combine, slot: slot, verts: verts[:0], vals: vals[:0]}
	}
	for b, blk := range e.blocks {
		for i, v := range blk {
			e.local[v] = int32(i)
		}
		l := e.bufs[b]
		outbox := slices.Grow(l.outbox[:0], nb)[:nb]
		for d := range outbox {
			outbox[d] = outbox[d][:0]
		}
		slots := rt.TakeArray[struct{ at, n int32 }](2 * len(blk))
		e.slots[b] = slots
		e.ctx[b].V = BlockContext[V, M]{
			engine: e,
			block:  b,
			marks:  rt.TakeArray[uint64]((len(blk) + 63) / 64),
			marked: l.marked[:0],
			queue:  fifo{buf: l.queue[:0]},
			outbox: outbox,
			inbox:  inbox(slots[:len(blk)], l.verts[0], l.vals[0]),
			next:   inbox(slots[len(blk):], l.verts[1], l.vals[1]),
		}
	}
	e.drain = e.drainLanes
	e.dirtyBlocks = make([]bool, nb)
	e.scratch = rt.GetScratches(nb)
	e.pullBlock = make([]bool, nb)
	switch cfg.Mode {
	case rt.DirectionPull:
		for b := range e.pullBlock {
			e.pullBlock[b] = true
		}
	case rt.DirectionPush:
		// all false
	default:
		// DirectionAuto: pull only where intra-block traffic dominates.
		for b, frac := range rt.BlockLocalFractions(csr, e.owner, nb) {
			e.pullBlock[b] = frac >= 0.5
		}
	}
	for _, p := range e.pullBlock {
		if p {
			e.anyPull = true
		}
	}
	for v := 0; v < n; v++ {
		e.values[v] = prog.Init(g, VertexID(v))
	}
	return e
}

// Run executes to quiescence: all blocks halted with no boundary
// messages in flight. The superstep lifecycle — one-goroutine-per-block
// dispatch, fault firing, checkpoint cadence, rollback, halting, cost
// accounting — is owned by the shared runtime.Driver; this engine
// contributes the block-compute and boundary-delivery policy.
func (e *Engine[V, M]) Run() (*Result[V], error) {
	if e.err != nil {
		return &Result[V]{Stats: &bsp.Stats{}}, e.err
	}
	defer e.prepared.Release()
	defer rt.PutScratches(e.scratch)
	defer e.putBufs()
	e.driver = rt.NewDriver[*bcSnapshot[V, M]](e, e.stats, e.prepared.Driver)
	_, err := e.driver.Run()
	e.driver = nil
	return &Result[V]{Values: e.values, Stats: e.stats}, err
}

// putBufs gives the blocks' buffers, grown to this run's peak and
// emptied, and the working arrays, zeroed, back to the run-buffer
// cache, and drops the engine's references to them.
func (e *Engine[V, M]) putBufs() {
	var bytes int64
	for b, l := range e.bufs {
		if b < len(e.ctx) {
			c := e.block(b)
			rt.KeepArray(c.marks)
			rt.KeepArray(e.slots[b])
			*l = blockBufs[M]{
				outbox: c.outbox,
				verts:  [2][]VertexID{c.inbox.verts, c.next.verts},
				vals:   [2][]M{c.inbox.vals, c.next.vals},
				marked: c.marked,
				queue:  c.queue.buf,
			}
		}
		bytes += l.empty()
	}
	rt.KeepRunBuffer(e.bufs, bytes)
	rt.KeepArray(e.local)
	e.bufs, e.ctx, e.slots, e.local = nil, nil, nil, nil
}

// block returns block b's context.
func (e *Engine[V, M]) block(b int) *BlockContext[V, M] { return &e.ctx[b].V }

// wakes reports whether block b computes in superstep step: always in
// superstep 0, later unless it voted to halt and no message awaits it.
func (e *Engine[V, M]) wakes(b, step int) bool {
	return step == 0 || !e.halted[b] || e.block(b).next.total != 0
}

// Quiescent implements runtime.Policy: every block halted with no
// boundary messages in flight.
func (e *Engine[V, M]) Quiescent(step, pending int) bool {
	if step == 0 || pending != 0 {
		return false
	}
	for _, h := range e.halted {
		if !h {
			return false
		}
	}
	return true
}

// Snapshot implements runtime.Policy: it deep-copies the barrier state
// (boundary messages already delivered) of every block (full) or of the
// blocks computed or mailed across a boundary since the previous frame
// (delta), and resets the dirty tracking. Every array of the frame is
// leased from the run-buffer cache; Retire gives them back.
func (e *Engine[V, M]) Snapshot(full bool) *bcSnapshot[V, M] {
	blocks := rt.TakeDirty[int](e.dirtyBlocks, full)
	nb := len(e.halted)
	if blocks != nil {
		nb = len(blocks)
	}
	ck := &bcSnapshot[V, M]{
		blocks:     blocks,
		blockVals:  rt.TakeArray[[]V](nb),
		halted:     rt.TakeArray[bool](nb),
		inbox:      rt.TakeArray[inboxFrame[M]](nb),
		inboxLocal: rt.TakeArray[int64](nb),
	}
	for i := range ck.halted {
		b := rt.FrameID(blocks, i)
		ck.blockVals[i] = rt.CloneValuesAt(e.prog, e.values, e.blocks[b])
		ck.halted[i] = e.halted[b]
		ck.inboxLocal[i] = e.inboxLocal[b]
		in := &e.block(b).next
		f := inboxFrame[M]{
			verts: rt.TakeArray[VertexID](len(in.verts)),
			n:     rt.TakeArray[int32](len(in.verts)),
			vals:  rt.TakeArray[M](len(in.vals)),
		}
		copy(f.verts, in.verts)
		copy(f.vals, in.vals)
		for j, v := range in.verts {
			f.n[j] = in.slot[e.local[v]].n
		}
		ck.inbox[i] = f
	}
	return ck
}

// Retire implements runtime.Policy.
func (e *Engine[V, M]) Retire(ck *bcSnapshot[V, M]) {
	for i, f := range ck.inbox {
		rt.KeepArray(ck.blockVals[i])
		rt.KeepArray(f.verts)
		rt.KeepArray(f.n)
		rt.KeepArray(f.vals)
	}
	rt.KeepArray(ck.blocks)
	rt.KeepArray(ck.blockVals)
	rt.KeepArray(ck.halted)
	rt.KeepArray(ck.inbox)
	rt.KeepArray(ck.inboxLocal)
}

// FrameBytes implements runtime.Policy.
func (e *Engine[V, M]) FrameBytes(ck *bcSnapshot[V, M]) int64 {
	szV := rt.SizeOf[V]()
	b := int64(len(ck.halted)) +
		int64(len(ck.inboxLocal))*8 +
		int64(len(ck.blocks))*8
	for _, vs := range ck.blockVals {
		b += int64(len(vs)) * szV
	}
	szM, szRecipient := rt.SizeOf[M](), rt.SizeOf[VertexID]()+rt.SizeOf[int32]()
	for _, f := range ck.inbox {
		b += int64(len(f.verts))*szRecipient + int64(len(f.vals))*szM
	}
	return b
}

// Restore implements runtime.Policy: it writes the frame's blocks back
// over the engine state — every block for a full frame, the dirty ones
// for a delta (a block's members are exactly its writable vertices, so
// per-block patches cover every write since the parent frame).
func (e *Engine[V, M]) Restore(ck *bcSnapshot[V, M], step int) {
	clear(e.dirtyBlocks)
	for i, h := range ck.halted {
		b := rt.FrameID(ck.blocks, i)
		rt.RestoreValuesAt(e.prog, e.values, ck.blockVals[i], e.blocks[b])
		e.halted[b] = h
		e.inboxLocal[b] = ck.inboxLocal[i]
		in, f := &e.block(b).next, ck.inbox[i]
		in.reset()
		in.verts = append(in.verts, f.verts...)
		in.vals = append(in.vals, f.vals...)
		for j, v := range f.verts {
			in.slot[e.local[v]] = struct{ at, n int32 }{int32(j), f.n[j]}
			in.total += int64(f.n[j])
		}
	}
}

// Superstep implements runtime.Policy: compute every awake block in
// parallel (one persistent goroutine per block), consult the lane
// faults serially — where a src->dst batch can be lost in transit or
// redelivered — then let every block fold its incoming lanes into its
// next inbox in parallel.
func (e *Engine[V, M]) Superstep(superstep int, ss *bsp.SuperstepStats) (int, error) {
	nb := e.cfg.Workers
	ss.Pulled = e.anyPull
	// Frontier: members of the blocks that will wake this superstep —
	// the block-granular activity signal the adaptive planner reads.
	for b := 0; b < nb; b++ {
		if e.wakes(b, superstep) {
			ss.Frontier += int64(len(e.blocks[b]))
		}
	}
	e.driver.Lease().Run(func(b int) {
		if !e.wakes(b, superstep) {
			return
		}
		// Computing mutates the block's values, halt flag, and inboxes;
		// each goroutine writes only its own block's state, so this is
		// race-free.
		ctx := e.block(b)
		e.dirtyBlocks[b] = true
		e.halted[b] = false
		ss.Active[b] = int64(len(e.blocks[b]))
		// The next inbox becomes this superstep's; the emptied one
		// takes a pulling block's local sends during ComputeBlock — no
		// lane, no boundary exchange, no in-transit window for fault
		// injection.
		ctx.inbox, ctx.next = ctx.next, ctx.inbox
		in := &ctx.inbox
		// Locally-pulled messages never crossed a block boundary; Recv
		// reports boundary traffic only (the h term the cost model
		// charges). inboxLocal is zero when pull is off.
		ss.Recv[b] = in.total - e.inboxLocal[b]
		ctx.superstep, ctx.sent, ctx.work, ctx.halt = superstep, 0, 0, false
		e.prog.ComputeBlock(ctx, in)
		in.reset()
		ctx.unmarkAll()
		if ctx.halt {
			e.halted[b] = true
		}
		ss.Work[b] = ctx.work + 1
		ss.Sent[b] = ctx.sent
		e.inboxLocal[b] = ctx.next.total
	})

	// Locally-pulled deliveries still count toward pending — a halted
	// block with fresh local mail must wake, and Quiescent must not
	// declare the run drained while any block has messages pending.
	inj := e.driver.Injector()
	pending, mail := 0, false
	for b := 0; b < nb; b++ {
		pending += int(e.inboxLocal[b])
	}
	for src := 0; src < nb; src++ {
		out := e.block(src).outbox
		for dst := 0; dst < nb; dst++ {
			switch inj.LaneFault(superstep, src, dst) {
			case rt.FaultDropLane:
				// This src->dst batch is lost in transit; its messages
				// cannot be reconstructed, so the run rolls back at
				// the next barrier.
				out[dst] = out[dst][:0]
				e.driver.LoseBatch()
			case rt.FaultDupLane:
				// The replayed batch carries a stale sequence number
				// and is discarded; delivery stays exactly-once
				// (counted by the injector).
			}
			if k := len(out[dst]); k > 0 {
				pending += k
				e.dirtyBlocks[dst] = true
				mail = true
			}
		}
	}
	if mail {
		e.driver.Lease().Run(e.drain)
	}
	return pending, nil
}

// drainLanes folds every lane to block d into d's next inbox, in
// source-block order, and empties it.
func (e *Engine[V, M]) drainLanes(d int) {
	next := &e.block(d).next
	for src := range e.ctx {
		lane := &e.block(src).outbox[d]
		for _, am := range *lane {
			next.fold(am.dst, am.m)
		}
		*lane = (*lane)[:0]
	}
}

// BlockContext is the per-block view handed to ComputeBlock. The engine
// keeps one per block and reuses it across supersteps.
type BlockContext[V, M any] struct {
	engine    *Engine[V, M]
	block     int
	superstep int
	sent      int64
	work      int64
	halt      bool
	// marks is the block's mark bitmap by local id; marked lists the
	// marked vertices in insertion order.
	marks  []uint64
	marked []VertexID
	// queue is the label-correcting program's work list, kept here so
	// its capacity survives supersteps and runs.
	queue fifo
	// inbox holds the running superstep's messages. next folds those of
	// the next superstep — a pulling block's own sends while it
	// computes, then the lanes in source-block order — and is the
	// barrier state a checkpoint frame copies. outbox[d] is the lane to
	// block d: every send that is not pulled locally, in send order.
	inbox, next Inbox[M]
	outbox      [][]addr[M]
}

// Superstep returns the current superstep (0-based).
func (c *BlockContext[V, M]) Superstep() int { return c.superstep }

// Block returns the IDs of the block's vertices.
func (c *BlockContext[V, M]) Block() []VertexID { return c.engine.blocks[c.block] }

// Value returns a pointer to any vertex's value. Writing a remote
// vertex's value is forbidden (and racy); the engine only hands each
// block its own vertices via Block(), and programs must message remote
// vertices instead.
func (c *BlockContext[V, M]) Value(v VertexID) *V { return &c.engine.values[v] }

// Local reports whether v belongs to this block.
func (c *BlockContext[V, M]) Local(v VertexID) bool { return int(c.engine.owner[v]) == c.block }

// Out returns v's out-neighbor span from the CSR snapshot. The slice
// aliases the snapshot (or, on a packed snapshot, the block's decode
// buffer — the next Out call in this block overwrites it) and must not
// be modified.
func (c *BlockContext[V, M]) Out(v VertexID) []VertexID {
	return c.engine.csr.OutSpan(v, c.engine.scratch[c.block])
}

// OutWeights returns v's out-edge weight span aligned with Out(v), or
// nil when the graph is unweighted.
func (c *BlockContext[V, M]) OutWeights(v VertexID) []float64 { return c.engine.csr.OutWeights(v) }

// Mark adds v, a vertex of the block, to the block's marked set for
// this superstep. Marking is idempotent; the set empties when
// ComputeBlock returns.
func (c *BlockContext[V, M]) Mark(v VertexID) {
	l := c.engine.local[v]
	if w, bit := l>>6, uint64(1)<<(l&63); c.marks[w]&bit == 0 {
		c.marks[w] |= bit
		c.marked = append(c.marked, v)
	}
}

// Marked lists the marked vertices in the order they were first
// marked. The slice is reused; it must not be retained.
func (c *BlockContext[V, M]) Marked() []VertexID { return c.marked }

// unmarkAll empties the marked set, touching only its members.
func (c *BlockContext[V, M]) unmarkAll() {
	for _, v := range c.marked {
		l := c.engine.local[v]
		c.marks[l>>6] &^= uint64(1) << (l & 63)
	}
	c.marked = c.marked[:0]
}

// SendTo sends m to a (typically remote) vertex for the next superstep.
// When block-local pull is enabled for the sending block (see
// Config.Mode) a message to a vertex of that block folds straight into
// the block's own next inbox; it is not counted in Sent, which then
// reports boundary traffic only. Every other message goes through the
// lane to the recipient's block. Pull changes only where a block's
// own sends fall in each recipient's fold — ahead of every lane rather
// than at the block's place in source-block order — which is visible
// solely to order-sensitive float folds such as PageRank's sum (it
// stays deterministic and equal up to rounding).
func (c *BlockContext[V, M]) SendTo(dst VertexID, m M) {
	e := c.engine
	d := int(e.owner[dst])
	if d == c.block && e.pullBlock[d] {
		c.next.fold(dst, m)
		return
	}
	c.sent++
	c.outbox[d] = append(c.outbox[d], addr[M]{dst: dst, m: m})
}

// Charge records units of sequential work done inside the block.
func (c *BlockContext[V, M]) Charge(units int64) { c.work += units }

// VoteToHalt deactivates the block; boundary messages reactivate it.
func (c *BlockContext[V, M]) VoteToHalt() { c.halt = true }

// fifo is the label-correcting program's work list: first in, first out,
// keeping every duplicate (dedup would change the visit order and the
// work charged). The walk compacts the buffer in place once it is half
// consumed, and an emptied list restarts at the buffer's front, so the
// buffer grows with the list's peak length, not with the pops.
type fifo struct {
	buf  []VertexID
	head int
}

func (q *fifo) push(v VertexID) { q.buf = append(q.buf, v) }

func (q *fifo) pop() (VertexID, bool) {
	if q.head >= len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
		return 0, false
	}
	v := q.buf[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.buf) {
		q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
	}
	return v, true
}

// --- Block-centric label correcting: connected components and SSSP ---

// minPlus lowers runtime.MinPlus to a block program: each superstep a
// block absorbs the boundary offers that lower its labels, relaxes
// inside the block to a fixpoint (a sequential label-correcting sweep
// from every lowered vertex), then offers the labels of every vertex
// that changed over its boundary edges only. In superstep 0 every
// vertex with a label below the kernel's top seeds the sweep: all of
// them for CC, the source for SSSP. On a path split into B blocks CC
// takes Θ(B) supersteps, versus Θ(n) for vertex-centric Hash-Min. Min
// is order-independent, so values are byte-identical across schedules
// and fault plans.
type minPlus[V VertexID | float64] struct{ k rt.MinPlus[V] }

func (p minPlus[V]) Init(g *graph.Graph, id VertexID) V { return p.k.Init(id) }

func (minPlus[V]) Combine(a, b V) V { return min(a, b) }

func (p minPlus[V]) ComputeBlock(ctx *BlockContext[V, V], in *Inbox[V]) {
	// Absorb boundary offers. Every vertex whose label falls is marked
	// and queued.
	q := &ctx.queue
	for _, v := range in.Vertices() {
		l, n := in.Message(v)
		ctx.Charge(int64(n))
		if l < *ctx.Value(v) {
			*ctx.Value(v) = l
			ctx.Mark(v)
			q.push(v)
		}
	}
	if ctx.Superstep() == 0 {
		for _, v := range ctx.Block() {
			if *ctx.Value(v) < p.k.Top() {
				ctx.Mark(v)
				q.push(v)
			}
		}
	}
	// Relax to a block-local fixpoint.
	for v, ok := q.pop(); ok; v, ok = q.pop() {
		l := *ctx.Value(v)
		dsts, ws := ctx.Out(v), ctx.OutWeights(v)
		for i, u := range dsts {
			ctx.Charge(1)
			if !ctx.Local(u) {
				continue
			}
			if o := p.k.OfferOver(l, ws, i); o < *ctx.Value(u) {
				*ctx.Value(u) = o
				ctx.Mark(u)
				q.push(u)
			}
		}
	}
	// Offer the changed labels over boundary edges.
	for _, v := range ctx.Marked() {
		l := *ctx.Value(v)
		dsts, ws := ctx.Out(v), ctx.OutWeights(v)
		for i, u := range dsts {
			if !ctx.Local(u) {
				ctx.SendTo(u, p.k.OfferOver(l, ws, i))
			}
		}
	}
	ctx.VoteToHalt()
}

// CCResult mirrors vc.CCResult for the block-centric algorithm.
type CCResult struct {
	Color []VertexID
	Stats *bsp.Stats
}

// ConnectedComponents runs block-centric min-label connected
// components.
func ConnectedComponents(g *graph.Graph, cfg Config) (*CCResult, error) {
	return PrepareConnectedComponents(g, cfg)()
}

// PrepareConnectedComponents is the two-phase form: graph reads happen
// now (NewEngine), the returned closure runs lock-free on the pinned
// snapshot.
func PrepareConnectedComponents(g *graph.Graph, cfg Config) func() (*CCResult, error) {
	eng := NewEngine(g, CCProgram(), cfg)
	return func() (*CCResult, error) {
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		return &CCResult{Color: res.Values, Stats: res.Stats}, nil
	}
}

// SSSPResult carries block-centric shortest-path distances.
type SSSPResult struct {
	Dist  []float64
	Stats *bsp.Stats
}

// SSSP runs block-centric single-source shortest paths; unreachable
// vertices keep +Inf, matching seq.Dijkstra.
func SSSP(g *graph.Graph, src VertexID, cfg Config) (*SSSPResult, error) {
	return PrepareSSSP(g, src, cfg)()
}

// PrepareSSSP is the two-phase form of SSSP (see
// PrepareConnectedComponents).
func PrepareSSSP(g *graph.Graph, src VertexID, cfg Config) func() (*SSSPResult, error) {
	eng := NewEngine(g, SSSPProgram(src), cfg)
	return func() (*SSSPResult, error) {
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		return &SSSPResult{Dist: res.Values, Stats: res.Stats}, nil
	}
}

// --- Block-centric PageRank ---

// prProgram runs K iterations of power iteration, Pregel-style over
// the block abstraction and with the Pregel variant's exact arithmetic:
// every superstep each block folds the shares addressed to its vertices
// into rank = (1-alpha)/n + alpha*sum and sends rank/outdeg for the
// next round. Intra-block shares fold into the same inbox as boundary
// ones, keeping the summation order deterministic (blocks iterate
// their vertices in ascending order and inboxes fold in source-block
// order); under push mode with a range partition that
// order is ascending source ID — single-worker Pregel's combiner order
// — so the two engines' iterates are bit-identical. Matches
// seq.PageRank element-wise, including the dangling leak.
type prProgram struct {
	n     int
	k     int
	alpha float64
}

func (p prProgram) Init(g *graph.Graph, id VertexID) float64 {
	return 1 / float64(p.n)
}

// Combine sums the shares. A vertex's first share is stored as is,
// which equals 0 + share for the non-negative shares, so the fold is
// the sum a loop from 0 over the arrival order computes.
func (prProgram) Combine(a, b float64) float64 { return a + b }

func (p prProgram) ComputeBlock(ctx *BlockContext[float64, float64], in *Inbox[float64]) {
	s := ctx.Superstep()
	for _, v := range ctx.Block() {
		if s > 0 {
			sum, n := in.Message(v)
			ctx.Charge(int64(n))
			*ctx.Value(v) = (1-p.alpha)/float64(p.n) + p.alpha*sum
		}
		if s < p.k {
			out := ctx.Out(v)
			if len(out) == 0 {
				continue // dangling: rank leaks to the teleport term
			}
			share := *ctx.Value(v) / float64(len(out))
			for _, u := range out {
				ctx.Charge(1)
				ctx.SendTo(u, share)
			}
		}
	}
	if s >= p.k {
		ctx.VoteToHalt()
	}
}

// PRResult carries block-centric PageRank scores.
type PRResult struct {
	Ranks []float64
	Stats *bsp.Stats
}

// PageRank runs K iterations of block-centric power iteration with
// teleport probability (1-alpha), comparable element-wise to
// seq.PageRank.
func PageRank(g *graph.Graph, alpha float64, k int, cfg Config) (*PRResult, error) {
	return PreparePageRank(g, alpha, k, cfg)()
}

// PreparePageRank is the two-phase form of PageRank (see
// PrepareConnectedComponents).
func PreparePageRank(g *graph.Graph, alpha float64, k int, cfg Config) func() (*PRResult, error) {
	eng := NewEngine(g, PageRankProgram(g.N(), k, alpha), cfg)
	return func() (*PRResult, error) {
		res, err := eng.Run()
		if err != nil {
			return nil, err
		}
		return &PRResult{Ranks: res.Values, Stats: res.Stats}, nil
	}
}

// --- Programs the engine matrix (internal/vc) prepares itself ---
//
// The matrix runs every block-centric row through NewEngine and one
// generic adapter, so it builds these programs itself.

// CCProgram is the min-label component program.
func CCProgram() Program[VertexID, VertexID] { return minPlus[VertexID]{rt.CC(nil)} }

// SSSPProgram is the block-relaxation SSSP program from src.
func SSSPProgram(src VertexID) Program[float64, float64] {
	return minPlus[float64]{rt.SSSP(src, nil)}
}

// PageRankProgram is the fixed-iteration PageRank program: k folds
// from the uniform start. It is bit-compatible with single-worker
// Pregel only under DirectionPush over a range partition: per-block
// pull folds intra-block shares ahead of the boundary ones and
// changes the fold order.
func PageRankProgram(n, k int, alpha float64) Program[float64, float64] {
	return prProgram{n: n, k: k, alpha: alpha}
}
