package runtime

import (
	"fmt"
	"math"
	"slices"

	"vcgraph/internal/bsp"
)

// WorklistRunner is the asynchronous engine's FIFO-worklist execution
// policy: one Driver step is one epoch of up to epochLen updates popped
// from a deduplicating FIFO, each applied immediately and pushing its
// activations back. The Driver runs each epoch as an ordinary
// superstep — fault check, rollback, quiescence, epoch, save — so a
// program gets crash/drop/dup/corrupt recovery by filling in Update.
type WorklistRunner[V any] struct {
	// Update recomputes v from current values and returns the vertices
	// to (re)activate. The returned slice is consumed before the next
	// call, so implementations may reuse a scratch buffer.
	Update func(v VertexID) []VertexID
	// Prog is consulted for the optional ValueCloner deep-copy hook
	// when values are snapshotted or restored.
	Prog any
	// Values is the live value slice; Restore writes into it.
	Values []V
	// Queue is the worklist, seeded by the caller before Run.
	Queue *FIFO
	// N is the vertex count.
	N int

	// name, epochLen (updates per driver step, the fault-detection and
	// checkpoint granularity), limit (the update cap) and driver come
	// from the run environment (NewWorklistDriver).
	name     string
	epochLen int
	limit    int
	updates  int
	driver   *Driver[*WorklistSnapshot[V]]
	// dirty marks the vertices popped (and therefore possibly
	// rewritten — Update writes only values[v]) since the last
	// checkpoint frame, and popped[:npop] lists them in pop order, so a
	// delta frame can cost its size rather than n; Snapshot and Restore
	// clear both. Taken lazily at the first epoch; Release gives them
	// back.
	dirty  []bool
	popped []VertexID
	npop   int
}

// defaultEpoch is the epoch, in updates, when CheckpointEvery is unset.
const defaultEpoch = 64

// NewWorklistDriver binds p to its run environment dc, which
// EngineConfig.Prepare resolved: one driver step is one epoch of
// CheckpointEvery updates (64 when unset), and with checkpoints on the
// driver saves a frame after every epoch. MaxSupersteps caps updates;
// p checks it per update, so the driver's own step cap is unreachable.
func NewWorklistDriver[V any](p *WorklistRunner[V], stats *bsp.Stats, dc DriverConfig) *Driver[*WorklistSnapshot[V]] {
	p.name, p.limit = dc.Name, dc.MaxSupersteps
	p.epochLen = dc.CheckpointEvery
	if p.epochLen <= 0 {
		p.epochLen = defaultEpoch
	} else {
		dc.CheckpointEvery = 1
	}
	dc.MaxSupersteps = math.MaxInt
	p.driver = NewDriver[*WorklistSnapshot[V]](p, stats, dc)
	return p.driver
}

// Release gives the dirty flags and the worklist's arrays back to the
// run-buffer cache once the run has ended.
func (p *WorklistRunner[V]) Release() {
	KeepArray(p.dirty)
	KeepArray(p.popped)
	p.dirty, p.popped = nil, nil
	p.Queue.Release()
}

// Updates returns the total number of vertex updates applied.
func (p *WorklistRunner[V]) Updates() int { return p.updates }

// Quiescent implements Policy: the worklist drained.
func (p *WorklistRunner[V]) Quiescent(step, pending int) bool { return p.Queue.Len() == 0 }

// Superstep implements Policy: drain up to one epoch of updates,
// applying each immediately. Updates gather from live neighbor values,
// so the engine is pull-based by construction; an epoch that starts
// with a dense worklist is marked Pulled, and its activations take the
// bulk FIFO.PushAll path (identical order and dedup to per-vertex
// pushes, with the queue bookkeeping hoisted out of the loop). The
// epoch's activations are its one message batch: a dropped batch forces
// a rollback (the worklist cannot be reconstructed in place), and a
// duplicated one is absorbed because the FIFO already holds each vertex.
func (p *WorklistRunner[V]) Superstep(step int, ss *bsp.SuperstepStats) (int, error) {
	ss.Frontier = int64(p.Queue.Len())
	ss.Pulled = ChoosePull(DirectionAuto, true, p.Queue.Len(), p.N)
	if p.dirty == nil {
		p.dirty = TakeArray[bool](p.N)
		p.popped = TakeArray[VertexID](p.N)
	}
	for i := 0; i < p.epochLen; i++ {
		v, ok := p.Queue.Pop()
		if !ok {
			break
		}
		p.mark(v)
		if p.updates >= p.limit {
			return p.Queue.Len(), fmt.Errorf("%s: %w (cap %d)", p.name, bsp.ErrSuperstepCap, p.limit)
		}
		p.updates++
		ss.Work[0]++
		ss.Active[0]++
		acts := p.Update(v)
		ss.Sent[0] += int64(len(acts))
		p.Queue.PushAll(acts)
	}
	if p.driver.Injector().LaneFault(step, 0, 0) == FaultDropLane {
		p.driver.LoseBatch()
	}
	return p.Queue.Len(), nil
}

// Snapshot implements Policy: the values of every vertex (full) or of
// the vertices popped since the previous frame (delta), plus the whole
// worklist in arrival order — small on sparse tails, and required, since
// a queue cannot be patched — and the update count. Its arrays are
// leased from the run-buffer cache; Retire gives them back.
func (p *WorklistRunner[V]) Snapshot(full bool) *WorklistSnapshot[V] {
	ids := p.takeDirty(full)
	return &WorklistSnapshot[V]{
		ids:     ids,
		values:  CloneValuesAt(p.Prog, p.Values, ids),
		queue:   p.Queue.SnapshotInto(TakeArray[VertexID](p.Queue.Len())),
		updates: p.updates,
	}
}

// mark records that v was popped since the last frame.
func (p *WorklistRunner[V]) mark(v VertexID) {
	if !p.dirty[v] {
		p.dirty[v] = true
		p.popped[p.npop] = v
		p.npop++
	}
}

// takeDirty returns the frame's ids as TakeDirty does — nil for a full
// frame, the marked vertices ascending for a delta — and clears the
// marks through the list of pops, so a frame costs its pops, not n.
func (p *WorklistRunner[V]) takeDirty(full bool) []VertexID {
	pops := p.popped[:p.npop]
	p.npop = 0
	for _, v := range pops {
		p.dirty[v] = false
	}
	if full {
		return nil
	}
	ids := TakeArray[VertexID](len(pops))
	copy(ids, pops)
	slices.Sort(ids)
	return ids
}

// Retire implements Policy.
func (p *WorklistRunner[V]) Retire(snap *WorklistSnapshot[V]) {
	KeepArray(snap.ids)
	KeepArray(snap.values)
	KeepArray(snap.queue)
}

// FrameBytes implements Policy.
func (p *WorklistRunner[V]) FrameBytes(snap *WorklistSnapshot[V]) int64 {
	szID := SizeOf[VertexID]()
	return int64(len(snap.values))*SizeOf[V]() +
		int64(len(snap.ids))*szID +
		int64(len(snap.queue))*szID
}

// Restore implements Policy: write the frame's values back and replace
// the worklist and the update count.
func (p *WorklistRunner[V]) Restore(snap *WorklistSnapshot[V], step int) {
	clear(p.dirty)
	p.npop = 0
	RestoreValuesAt(p.Prog, p.Values, snap.values, snap.ids)
	p.Queue.Load(snap.queue)
	p.updates = snap.updates
}

// WorklistSnapshot is one checkpoint frame of a worklist run at an epoch
// boundary: the values of the vertices in ids (nil: every vertex),
// indexed by position in ids, the complete worklist in arrival order,
// and the number of updates applied before it.
type WorklistSnapshot[V any] struct {
	ids     []VertexID
	values  []V
	queue   []VertexID
	updates int
}
