// Package runtime is the shared execution substrate under the four
// processing engines (pregel, gas, async, blockcentric). It provides
// the reusable primitives:
//
//   - Pool / Lease: a shared worker pool whose goroutines are started
//     once per process and fed phase tasks through one queue; engines
//     dispatch phases through a Lease, a per-run view that carries the
//     run's virtual worker share and its own completion channel, so
//     many runs can share one pool concurrently without their barriers
//     interfering. A panicking task fails its lease's run, not the pool.
//   - Scheduler / Job: admission control over a shared pool — at most
//     maxJobs runs in flight, FIFO queueing beyond that — plus the Job
//     handle that owns a run's context, lease, per-superstep trace,
//     and cleanups. Every run is a job: one submitted without a
//     scheduler of its own runs under Default().
//   - Mailbox[M]: generic sharded mailboxes with per-(src,dst)-worker
//     lanes, optional sender-side combining, and buffer reuse across
//     supersteps, and across runs through the run-buffer cache
//     (runcache.go) every engine takes its growable buffers from.
//   - Worklists / FIFO: active-vertex worklists so a superstep (or an
//     asynchronous drain) touches only vertices that are active or
//     have mail, with O(P) pending counters replacing O(n) scans.
//
// None of the primitives change what the engines measure: the BSP
// instrumentation (internal/bsp) still records raw, pre-combining
// message counts and per-worker work, so Stats semantics are
// byte-identical to the pre-runtime engines.
package runtime

import (
	"fmt"
	stdruntime "runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"vcgraph/internal/bsp"
)

// DefaultWorkers returns the engines' default parallelism:
// min(4, GOMAXPROCS). Four workers keep the BSP cost model's P small
// and stable across machines while still exercising real parallelism.
func DefaultWorkers() int {
	w := 4
	if p := stdruntime.GOMAXPROCS(0); p < w {
		w = p
	}
	return w
}

// task is one unit of phase work: fn(idx) for one virtual worker of
// some lease, acknowledged on the lease's completion channel.
type task struct {
	fn    func(worker int)
	idx   int
	lease *Lease
}

// run executes the task and acknowledges it however fn ends: a panic
// is kept on the lease for Lease.Run to re-raise, so the pool goroutine
// survives and the phase barrier still completes. It stamps the virtual
// worker's busy span into the lease before acknowledging.
func (t task) run() {
	sp := &t.lease.spans[t.idx].V
	sp.start = nanotime()
	defer func() {
		sp.end = nanotime()
		if v := recover(); v != nil {
			t.lease.panicked.CompareAndSwap(nil, &PanicError{Worker: t.idx, Value: v, Stack: debug.Stack()})
		}
		t.lease.done <- struct{}{}
	}()
	t.fn(t.idx)
}

// clockBase anchors nanotime; time.Since reads the monotonic clock.
var clockBase = time.Now()

// nanotime is the phase clock: monotonic nanoseconds, read without
// allocating.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// since returns the time elapsed from a nanotime stamp.
func since(t0 int64) time.Duration { return time.Duration(nanotime() - t0) }

// busySpan is one virtual worker's busy interval in the running phase.
type busySpan struct{ start, end int64 }

// PanicError is a panic in a run, recovered by Driver.Run and returned
// as the run's error. Worker is the virtual worker whose pool task
// panicked, or -1 for the driver's own goroutine (master, serial
// finish, checkpoint code).
type PanicError struct {
	Superstep int
	Worker    int
	Value     any
	Stack     []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic at superstep %d on worker %d: %v", e.Superstep, e.Worker, e.Value)
}

// Pool is a shared worker pool: W goroutines draining one task queue.
// Runs do not own the pool — each owns a Lease, which dispatches that
// run's virtual workers as tasks and waits for them on its private
// completion channel. Virtual worker counts are independent of W: a
// lease for P > W workers still runs all P tasks (at most W at a
// time), so a job's measured P·T accounting never depends on how many
// physical goroutines the pool happens to have.
//
// Close releases the goroutines; it must not race with in-flight
// Lease.Run calls.
type Pool struct {
	workers int
	tasks   chan task
	close   sync.Once
}

// NewPool starts a pool of workers goroutines (0 = DefaultWorkers).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan task, 2*workers),
	}
	for w := 0; w < workers; w++ {
		go func() {
			for t := range p.tasks {
				t.run()
			}
		}()
	}
	return p
}

// processPoolWorkers sizes the pool of Default(). It is sized well past
// any run's worker count rather than at GOMAXPROCS. With a goroutine
// behind every virtual worker, where a phase's tasks run is the Go
// scheduler's choice — it keeps them near the goroutine that readied
// them while other runs compete for the CPUs — instead of strict queue
// order across every CPU.
// Measured on cmd/table1's parallel golden test (two concurrent
// 4-worker runs, 2 CPUs): a GOMAXPROCS-sized pool took 3.4x the CPU
// time of this one, with Worklists.Add alone 16x slower — the workers
// of one run, always spread over both CPUs, contend for the cache
// lines their hash-partitioned worklist flags share. Parked goroutines
// cost a few KiB each.
const processPoolWorkers = 64

// Workers returns the number of pool goroutines.
func (p *Pool) Workers() int { return p.workers }

// Lease carves a share-worker view out of the pool. The lease has no
// admission semantics of its own (see Scheduler.Acquire for that); its
// Release is a no-op unless a scheduler attached one.
func (p *Pool) Lease(share int) *Lease {
	if share <= 0 {
		share = p.workers
	}
	return &Lease{pool: p, share: share, done: make(chan struct{}, share), spans: PerWorker[busySpan](share)}
}

// Close parks the pool permanently, releasing its goroutines. The pool
// must not be used afterwards. Close is idempotent.
func (p *Pool) Close() {
	p.close.Do(func() { close(p.tasks) })
}

// Lease is one run's view of a shared Pool: Run dispatches the lease's
// share of virtual workers as pool tasks and waits for all of them (the
// phase barrier). The completion channel is owned by the lease and
// reused across phases, so a superstep's two dispatches allocate
// nothing; the channel send/receive pairs order the memory effects of
// phase k before phase k+1 exactly as the pre-lease pool did.
//
// A Lease is owned by a single orchestrating goroutine; concurrent
// Run calls on one lease are not allowed (concurrent runs each hold
// their own lease).
type Lease struct {
	pool    *Pool
	share   int
	done    chan struct{}
	release func()
	once    sync.Once
	// panicked is the phase's first task panic.
	panicked atomic.Pointer[PanicError]
	// spans holds each virtual worker's busy interval in the running
	// phase, stamped by its task. phases accumulates the phases since
	// the driver last reset it, the first one as compute and every
	// later one as delivery; phase counts them.
	spans  []Padded[busySpan]
	phases [2]bsp.PhaseTime
	phase  int
}

// Workers returns the lease's virtual worker share (the engine's P).
func (l *Lease) Workers() int { return l.share }

// Run executes fn(w) for every virtual worker w in [0, share) and
// waits for all of them, stamping the phase into the lease's clock.
// If a task panicked, Run re-raises the first such panic as a
// *PanicError once every task has been acknowledged.
func (l *Lease) Run(fn func(worker int)) {
	t0 := nanotime()
	for i := 0; i < l.share; i++ {
		l.pool.tasks <- task{fn: fn, idx: i, lease: l}
	}
	for i := 0; i < l.share; i++ {
		<-l.done
	}
	pt := &l.phases[min(l.phase, 1)]
	l.phase++
	pt.Wall += since(t0)
	var busyMax, busySum int64
	for i := range l.spans {
		b := l.spans[i].V.end - l.spans[i].V.start
		busyMax = max(busyMax, b)
		busySum += b
	}
	pt.BusyMax += time.Duration(busyMax)
	pt.BusyMean += time.Duration(busySum / int64(l.share))
	if pe := l.panicked.Swap(nil); pe != nil {
		panic(pe)
	}
}

// Release returns the lease's admission slot to its scheduler (no-op
// for plain pool leases). Idempotent.
func (l *Lease) Release() {
	l.once.Do(func() {
		if l.release != nil {
			l.release()
		}
	})
}
