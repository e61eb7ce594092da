package runtime

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/metrics"

	"vcgraph/internal/bsp"
)

// Driver is the shared superstep kernel under all four engines. It owns
// the full per-barrier lifecycle — worker-pool dispatch, fault-plan
// firing (crashes at barriers, lost message batches), checkpoint cadence
// and rollback, cap and halting — and the measured cost accounting: one
// instrumented path computes each superstep's w (max local work over
// workers), h (max messages sent/received per partition), and
// max(w, g·h, L) into bsp.SuperstepStats, so every engine reports the
// time-processor product identically.
//
// An engine is a Policy: it fills the per-worker Work/Sent/Recv/Active
// slices while a superstep runs and defines what quiescence and its one
// checkpoint frame mean for its model. Every engine runs the same
// barrier order: fault check, rollback, quiescence, superstep, save.
// The one optional extension, SerialFinishPolicy, is discovered by type
// assertion.
type Policy[S any] interface {
	// Quiescent reports whether the computation has converged at the
	// barrier entering step, after fault detection and rollback.
	// pending is the superstep's in-flight message count as returned by
	// the previous Superstep (or restored from a checkpoint). It is the
	// one single-threaded hook before each superstep, so pregel runs
	// its master compute here, and a master halt reads as quiescence.
	Quiescent(step, pending int) bool
	// Superstep executes one superstep's phases, charging per-worker
	// load into ss, and returns the number of messages pending for the
	// next superstep. A policy whose delivery loses a message batch in
	// transit must call Driver.LoseBatch; a policy that enforces its
	// own cap returns a non-nil error, which aborts the run verbatim.
	Superstep(step int, ss *bsp.SuperstepStats) (pending int, err error)
	// Snapshot deep-copies the barrier state into a checkpoint frame and
	// resets the policy's dirty tracking: every vertex when full, else
	// only the state dirtied since the previous frame, so each delta
	// patches exactly the frame before it. A frame's arrays are taken
	// from the run-buffer cache (TakeArray).
	Snapshot(full bool) S
	// Restore applies a frame of the chain that reconstructs barrier
	// step: a full frame replaces the whole state, a delta patches it.
	// A rollback calls it for the chain's full base frame, then for each
	// later frame in save order; with no readable chain, once for the
	// full frame the driver took before superstep 0.
	Restore(snap S, step int)
	// FrameBytes reports a frame's deterministic resident-byte estimate
	// (element sizes times element counts), feeding
	// Recovery.CheckpointBytesFull/Delta.
	FrameBytes(snap S) int64
	// Retire gives a frame's arrays back with KeepArray. The driver
	// calls it exactly once per frame: when the store prunes the frame,
	// or when the run ends, however it ends, for every frame still held
	// and for the start frame. No rollback reads a retired frame, and
	// Restore copies out of a frame, never aliasing it.
	Retire(snap S)
}

// SerialFinishPolicy is an optional Policy extension for "finishing
// computations serially": after a clean superstep the driver offers the
// policy the chance to complete the run in one sequential step.
// Returning done=true ends the run; the driver records one final
// superstep charging work (and active units) to worker 0.
type SerialFinishPolicy interface {
	FinishSerially(pending int) (work, active int64, done bool)
}

// DriverConfig parameterizes a Driver run: the engine's resolved run
// environment (EngineConfig.Prepare fills it) plus what only the driver
// reads. Workers sizes the per-superstep stat slices, and the Job's
// admitted share must equal it. MaxSupersteps caps the driver's
// steps; the async worklist, which the incremental engine drains too,
// caps updates in its policy and sets it to math.MaxInt on its copy.
type DriverConfig struct {
	EngineConfig
	// Name prefixes the run's errors ("pregel: superstep cap reached ...").
	Name string
}

// Driver runs a Policy to termination. One Driver serves one Run.
type Driver[S any] struct {
	cfg   DriverConfig
	pol   Policy[S]
	stats *bsp.Stats

	lease *Lease
	inj   *Injector
	cks   Checkpoints[ckFrame[S]]
	// start is the full frame of the state before superstep 0, taken
	// only when faults are injected: a rollback with no readable chain
	// restores it. It is kept out of cks, so it is never counted,
	// charged or corrupted as a checkpoint.
	start S
	lost  bool
	step  int
	// sinceFull counts delta frames saved since the last full one;
	// forceFull pins the next save to a full frame after a rollback
	// (frames above the restored generation are unreadable, and a delta
	// saved now would chain through them).
	sinceFull int
	forceFull bool
	// scratch holds the superstep being measured; a field rather than a
	// local so passing its address through the Policy interface does not
	// heap-allocate a struct per superstep.
	scratch bsp.SuperstepStats
	// clock accumulates the wall time stamped since the last recorded
	// superstep; record charges it to the superstep it appends.
	clock bsp.Clock
	// first is the index of the run's first record in its job's trace,
	// which stats.Supersteps is a view of.
	first int
}

// ckFrame pairs a policy snapshot with the driver-owned pending count,
// so engine snapshot types carry only engine state.
type ckFrame[S any] struct {
	snap    S
	pending int
}

// NewDriver builds a driver for pol, charging instrumentation into
// stats. Run makes stats.Supersteps a view of the run's records in its
// job's trace, which holds the only copy.
func NewDriver[S any](pol Policy[S], stats *bsp.Stats, cfg DriverConfig) *Driver[S] {
	return &Driver[S]{cfg: cfg, pol: pol, stats: stats}
}

// Lease returns the run's worker lease (valid during Run): the view
// through which the policy dispatches its parallel phases.
func (d *Driver[S]) Lease() *Lease { return d.lease }

// Injector returns the run's fault injector (nil without faults; all
// Injector methods are nil-safe).
func (d *Driver[S]) Injector() *Injector { return d.inj }

// LoseBatch marks the running superstep's barrier state incomplete: a
// message batch was dropped in transit. The driver skips the
// checkpoint and serial finish for this step and rolls back at the next
// barrier. Call it only from single-threaded policy code (between pool
// phases), not from pool workers.
func (d *Driver[S]) LoseBatch() { d.lost = true }

// Run executes the policy to termination: quiescence (on pregel, also
// a master halt), a serial finish, the step cap, a policy error, or
// cancellation of the run's job. It returns the number of steps
// executed (the barrier index at which the run stopped). A run without
// a Job becomes a job of Default(). Run is the run's panic boundary: a
// panic in a pool task or on the driver's goroutine ends the run with a
// *PanicError, wrapped with the run's name, and fails its job.
func (d *Driver[S]) Run() (steps int, err error) {
	if d.cfg.Job == nil {
		err = Default().Submit(context.Background(), d.cfg.Name, d.cfg.Workers, func(j *Job) error {
			d.cfg.Job = j
			steps, err = d.Run()
			return err
		}).Wait()
		return steps, err
	}
	defer func() {
		if v := recover(); v != nil {
			pe, ok := v.(*PanicError)
			if !ok {
				pe = &PanicError{Worker: -1, Value: v, Stack: debug.Stack()}
			}
			pe.Superstep = d.step
			steps, err = d.step, fmt.Errorf("%s: %w", d.cfg.Name, pe)
		}
	}()
	// Memory observability: bracket the run with heap readings so every
	// engine reports how much heap the run grew and allocated — the
	// comparative counters behind the memory-lean substrate.
	alloc0, inuse0 := readHeap()
	defer func() {
		alloc1, inuse1 := readHeap()
		d.stats.HeapInuseDelta += inuse1 - inuse0
		d.stats.TotalAllocDelta += alloc1 - alloc0
	}()
	ctx := d.cfg.Job.Context()
	d.first = d.cfg.Job.Steps()
	d.lease = d.cfg.Job.leaseHandle()
	if d.lease.Workers() != d.cfg.Workers {
		// An invariant, not an input check: EngineConfig.Prepare takes
		// Workers from the job, or fails a sequential engine's run whose
		// job holds a share other than 1.
		return 0, fmt.Errorf("%s: job lease share %d != driver workers %d", d.cfg.Name, d.lease.Workers(), d.cfg.Workers)
	}
	defer func() { d.lease = nil }()
	t0 := nanotime()
	defer func() {
		// What no superstep was charged: the start frame, the final
		// quiescence check, the stamps of a run a panic ended.
		d.stats.Clock.Add(d.clock)
		d.clock = bsp.Clock{}
		d.stats.Wall += since(t0)
	}()
	d.inj = d.cfg.Faults.NewInjector(d.cfg.Workers)
	d.cks.retire = func(f ckFrame[S]) { d.pol.Retire(f.snap) }
	defer d.cks.RetireAll()
	if d.inj != nil {
		c := nanotime()
		d.start = d.pol.Snapshot(true)
		defer d.pol.Retire(d.start)
		d.clock.Checkpoint += since(c)
	}

	finisher, hasFinisher := d.pol.(SerialFinishPolicy)

	pending := 0
	capHit := false
	aborted := false
	var polErr error
	for d.step = 0; ; d.step++ {
		// Cancellation wins over everything at the barrier: an aborted
		// run fires no faults, takes no checkpoint, and never rolls
		// back — the caller asked it to stop, not to recover.
		if ctx.Err() != nil {
			aborted = true
			break
		}
		if d.step >= d.cfg.MaxSupersteps {
			capHit = true
			break
		}
		// The barrier doubles as the failure-detection point: a crashed
		// worker or a batch lost in the previous delivery rolls the run
		// back to its newest readable checkpoint before the quiescence
		// check (a lost batch can masquerade as quiescence).
		if _, crashed := d.inj.CrashAt(d.step); crashed || d.lost {
			d.lost = false
			c := nanotime()
			d.step, pending = d.rollback()
			d.clock.Checkpoint += since(c)
		}
		c := nanotime()
		quiescent := d.pol.Quiescent(d.step, pending)
		d.clock.Serial += since(c)
		if quiescent {
			break
		}
		pending, polErr = d.runSuperstep()
		if polErr != nil || d.lost {
			// A lost batch leaves the barrier state incomplete: neither
			// checkpointed nor finished serially. Roll back at the top
			// of the next step.
			d.record(d.scratch)
			if polErr != nil {
				break
			}
			continue
		}
		if k := d.cfg.CheckpointEvery; k > 0 && (d.step+1)%k == 0 {
			c := nanotime()
			d.save(d.step+1, pending)
			d.clock.Checkpoint += since(c)
		}
		d.record(d.scratch)
		if hasFinisher {
			c := nanotime()
			work, active, done := finisher.FinishSerially(pending)
			d.clock.Serial += since(c)
			if done {
				d.recordSerialStep(work, active)
				d.step++ // count the serial step
				break
			}
		}
	}

	if d.inj != nil {
		c := d.inj.Counts()
		d.stats.Recovery.DroppedLanes = c.DroppedLanes
		d.stats.Recovery.DuplicatedLanes = c.DuplicatedLanes
	}
	if polErr != nil {
		return d.step, polErr
	}
	if aborted {
		return d.step, fmt.Errorf("%s: %w", d.cfg.Name, context.Cause(ctx))
	}
	if capHit {
		return d.step, fmt.Errorf("%s: %w (cap %d)", d.cfg.Name, bsp.ErrSuperstepCap, d.cfg.MaxSupersteps)
	}
	return d.step, nil
}

// readHeap returns the process's cumulative heap allocation and its
// in-use heap (object plus unused bytes of in-use spans: what
// runtime.MemStats calls HeapInuse), read through runtime/metrics,
// which, unlike runtime.ReadMemStats, does not stop the world. Small
// objects are counted when their span leaves a P's cache, so both are
// approximate to a span per P and size class.
func readHeap() (alloc uint64, inuse int64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), int64(s[1].Value.Uint64() + s[2].Value.Uint64())
}

// runSuperstep executes one superstep through the policy into
// d.scratch and stamps it: the lease's phases as compute and delivery,
// and the rest of the Superstep span as the engine's serial code.
func (d *Driver[S]) runSuperstep() (int, error) {
	d.scratch = bsp.NewSuperstepStats(d.cfg.Workers)
	l := d.lease
	l.phases, l.phase = [2]bsp.PhaseTime{}, 0
	c := nanotime()
	pending, err := d.pol.Superstep(d.step, &d.scratch)
	span := since(c)
	d.clock.Compute.Add(l.phases[0])
	d.clock.Delivery.Add(l.phases[1])
	d.clock.Serial += span - l.phases[0].Wall - l.phases[1].Wall
	return pending, err
}

// recordSerialStep appends the one single-worker superstep a serial
// finish is charged as.
func (d *Driver[S]) recordSerialStep(work, active int64) {
	ss := bsp.NewSuperstepStats(d.cfg.Workers)
	ss.Work[0] = work
	ss.Active[0] = active
	d.record(ss)
}

// record finalizes the measured accounting of a superstep at the
// barrier — w, h, max(w, g·h, L) and the wall time stamped since the
// previous record — adds it to the run totals, and publishes it in the
// job's trace, of which stats.Supersteps is the run's view.
func (d *Driver[S]) record(ss bsp.SuperstepStats) {
	ss.MaxWork = ss.W()
	ss.MaxComm = ss.H()
	ss.Cost = bsp.DefaultModel.SuperstepTime(ss)
	ss.Clock, d.clock = d.clock, bsp.Clock{}
	d.stats.Clock.Add(ss.Clock)
	for w := range ss.Work {
		d.stats.TotalWork += ss.Work[w]
		d.stats.TotalMessages += ss.Sent[w]
	}
	d.stats.MeasuredTime += ss.Cost
	d.stats.Supersteps = d.cfg.Job.observe(ss, d.first)
}

// save checkpoints the barrier state entering step — a full frame, or
// a dirty-set delta against the previous frame when the chain is not
// due for a full one. A scheduled FaultCorruptCheckpoint damages the
// frame silently; the store only discovers it when a recovery reads the
// frame's chain back.
func (d *Driver[S]) save(step, pending int) {
	full := d.cfg.FullSnapshotEvery <= 1 || d.forceFull || d.cks.Saved() == 0 ||
		d.sinceFull >= d.cfg.FullSnapshotEvery-1
	snap := d.pol.Snapshot(full)
	d.cks.Save(step, ckFrame[S]{snap: snap, pending: pending}, full, d.inj.CorruptSave(step))
	d.stats.Recovery.CheckpointsSaved++
	b := d.pol.FrameBytes(snap)
	if full {
		d.sinceFull, d.forceFull = 0, false
		d.stats.Recovery.CheckpointBytesFull += b
	} else {
		d.sinceFull++
		d.stats.Recovery.DeltaCheckpointsSaved++
		d.stats.Recovery.CheckpointBytesDelta += b
	}
}

// rollback restores the newest reconstructible generation (base full
// frame plus its delta chain, or the start frame) and returns the
// barrier position to resume from.
func (d *Driver[S]) rollback() (resumed, pending int) {
	d.stats.Recovery.Rollbacks++
	chain, step, skipped, invalidated, ok := d.cks.Recover()
	d.stats.Recovery.CorruptedCheckpoints += skipped
	d.stats.Recovery.InvalidatedCheckpoints += invalidated
	d.forceFull = true
	if !ok {
		d.pol.Restore(d.start, 0)
		step, pending = 0, 0
	} else {
		for _, f := range chain {
			d.pol.Restore(f.snap, step)
		}
		pending = chain[len(chain)-1].pending
	}
	d.stats.Recovery.RedoneSupersteps += d.step - step
	return step, pending
}
