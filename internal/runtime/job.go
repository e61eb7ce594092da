package runtime

import (
	"context"
	"slices"
	"sync"

	"vcgraph/internal/bsp"
)

// JobState is a job's position in its lifecycle.
type JobState int32

const (
	// JobQueued: submitted, waiting for an admission slot.
	JobQueued JobState = iota
	// JobRunning: holds a lease and is executing.
	JobRunning
	// JobSucceeded: the run function returned nil.
	JobSucceeded
	// JobFailed: the run function returned an error, such as a
	// *PanicError.
	JobFailed
	// JobCancelled: the job's context was cancelled or timed out,
	// before or during the run.
	JobCancelled
)

// String returns the lowercase wire name of the state.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobSucceeded:
		return "succeeded"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	}
	return "unknown"
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s >= JobSucceeded }

// Job is the handle binding engine runs to the shared substrate; a run
// started without one becomes a job of Default(). It owns the run's
// context (cancellation and deadline), its pool lease (granted by the
// scheduler at admission), a per-superstep trace the driver publishes
// into as barriers complete (so callers can stream progress from a live
// run), and the cleanups that release pinned resources when the job
// ends however it ends. A panic in a run fails only its job.
//
// A Job is created by Scheduler.Submit and safe for concurrent use.
type Job struct {
	id     int64
	name   string
	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{}

	mu       sync.Mutex
	state    JobState
	err      error
	lease    *Lease
	trace    []bsp.SuperstepStats
	cleanups []func()
}

// ID returns the scheduler-assigned job ID.
func (j *Job) ID() int64 { return j.id }

// Name returns the submit-time job name (used in error prefixes).
func (j *Job) Name() string { return j.name }

// Context returns the job's context. Engines run under it: the driver
// checks it at every superstep barrier, so Cancel (or a deadline)
// aborts the run at the next barrier without a rollback.
func (j *Job) Context() context.Context { return j.ctx }

// Cancel cancels the job with the given cause (nil = context.Canceled).
// A queued job leaves the admission queue; a running job aborts at its
// next superstep barrier. Safe to call at any time, from any goroutine.
func (j *Job) Cancel(cause error) { j.cancel(cause) }

// Done returns a channel closed when the job reaches a terminal state
// and its lease and cleanups have been released.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal and returns its error.
func (j *Job) Wait() error {
	<-j.done
	return j.Err()
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's terminal error (nil while running or after
// success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Workers returns the job's admitted worker share (0 while queued).
func (j *Job) Workers() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lease == nil {
		return 0
	}
	return j.lease.share
}

// Steps returns the number of supersteps recorded so far.
func (j *Job) Steps() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.trace)
}

// TraceSince returns a copy of the superstep records from index k on —
// the streaming read: poll with k = number of records already seen.
// Records are immutable once published (the driver never revisits a
// recorded barrier), so the shallow copy is safe to read concurrently
// with the run.
func (j *Job) TraceSince(k int) []bsp.SuperstepStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	if k < 0 {
		k = 0
	}
	if k >= len(j.trace) {
		return nil
	}
	out := make([]bsp.SuperstepStats, len(j.trace)-k)
	copy(out, j.trace[k:])
	return out
}

// OnCleanup registers fn to run when the job reaches a terminal state,
// after its lease is released (LIFO order). Use it to unpin snapshots
// or free per-job resources; cleanups run exactly once, on every exit
// path including cancellation while queued.
func (j *Job) OnCleanup(fn func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cleanups = append(j.cleanups, fn)
}

// observe is the driver's publication hook: one record per completed
// superstep barrier. The trace is the only copy of the records: it
// returns the records from index first on, the driver's run so far,
// which the driver's Stats.Supersteps then aliases. The view's capacity
// ends at its length, so an append to it copies rather than writing
// into the trace. The trace grows by doubling: append's ~1.25× growth
// of a long trace allocates about five times its final size on the way
// up.
func (j *Job) observe(ss bsp.SuperstepStats, first int) []bsp.SuperstepStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n := len(j.trace); n == cap(j.trace) {
		j.trace = slices.Grow(j.trace, max(n, 16))
	}
	j.trace = append(j.trace, ss)
	return j.trace[first:len(j.trace):len(j.trace)]
}

// leaseHandle returns the admitted lease (nil while queued).
func (j *Job) leaseHandle() *Lease {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lease
}

func (j *Job) setRunning(l *Lease) {
	j.mu.Lock()
	j.state = JobRunning
	j.lease = l
	j.mu.Unlock()
}

func (j *Job) finish(state JobState, err error) {
	j.mu.Lock()
	j.state = state
	j.err = err
	j.mu.Unlock()
}

func (j *Job) runCleanups() {
	j.mu.Lock()
	fns := j.cleanups
	j.cleanups = nil
	j.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}
