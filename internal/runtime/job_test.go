package runtime

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vcgraph/internal/bsp"
)

// countPolicy runs a fixed number of supersteps, dispatching one
// no-op phase per step through the driver's lease.
type countPolicy struct {
	d     *Driver[int]
	steps int
	limit int
	// block, when non-nil, is received from at the top of every
	// superstep so tests can hold a run mid-flight.
	block chan struct{}
	// boom, when non-nil, is called at the top of every superstep.
	boom func(step int)
}

func (p *countPolicy) Quiescent(step, pending int) bool { return p.steps >= p.limit }
func (p *countPolicy) Superstep(step int, ss *bsp.SuperstepStats) (int, error) {
	if p.block != nil {
		<-p.block
	}
	if p.boom != nil {
		p.boom(step)
	}
	p.d.Lease().Run(func(w int) {})
	ss.Work[0]++
	p.steps++
	return 1, nil
}
func (p *countPolicy) Snapshot(full bool) int     { return p.steps }
func (p *countPolicy) Restore(snap int, step int) { p.steps = snap }
func (p *countPolicy) FrameBytes(snap int) int64  { return 8 }
func (p *countPolicy) Retire(snap int)            {}

func runCounting(limit int, cfg DriverConfig) (*countPolicy, *Driver[int], *bsp.Stats) {
	stats := &bsp.Stats{Workers: cfg.Workers}
	p := &countPolicy{limit: limit}
	d := NewDriver[int](p, stats, cfg)
	p.d = d
	return p, d, stats
}

func TestLeaseRunsAllVirtualWorkers(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	// A share wider than the physical pool still runs every virtual
	// worker exactly once per phase.
	l := pool.Lease(8)
	if l.Workers() != 8 {
		t.Fatalf("lease workers = %d, want 8", l.Workers())
	}
	var hits [8]int32
	for phase := 0; phase < 3; phase++ {
		l.Run(func(w int) { atomic.AddInt32(&hits[w], 1) })
	}
	for w, h := range hits {
		if h != 3 {
			t.Fatalf("virtual worker %d ran %d times, want 3", w, h)
		}
	}
}

func TestLeaseZeroShareDefaultsToPoolWidth(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	if got := pool.Lease(0).Workers(); got != 3 {
		t.Fatalf("Lease(0).Workers() = %d, want 3", got)
	}
}

// A run outside any job becomes a job of Default(), so repeated and
// concurrent runs share its one pool and leave no job in flight.
func TestDriverProcessPoolServesRuns(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				p, d, _ := runCounting(4, DriverConfig{Name: "test", EngineConfig: EngineConfig{Workers: 8, MaxSupersteps: 100}})
				steps, err := d.Run()
				if err != nil || steps != 4 || p.steps != 4 {
					t.Errorf("run %d: steps=%d err=%v", i, steps, err)
				}
			}
		}()
	}
	wg.Wait()
	if Default().InFlight() != 0 || Default().QueueLen() != 0 {
		t.Fatalf("default scheduler not drained: inflight=%d queued=%d", Default().InFlight(), Default().QueueLen())
	}
}

// A panic in a pool task, or on the driver's goroutine (worker -1),
// ends the run with a *PanicError naming its superstep and worker; the
// pool goroutine that ran the task survives.
func TestPanicFailsTheRun(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	l := pool.Lease(2)
	func() {
		defer func() {
			if pe, ok := recover().(*PanicError); !ok || pe.Worker != 1 {
				t.Fatalf("Lease.Run re-raised %v, want a *PanicError from worker 1", pe)
			}
		}()
		l.Run(func(w int) {
			if w == 1 {
				panic("boom")
			}
		})
	}()
	l.Run(func(int) {}) // hangs if the pool's only goroutine died

	for _, worker := range []int{1, -1} {
		p, d, _ := runCounting(10, DriverConfig{Name: "test", EngineConfig: EngineConfig{Workers: 2, MaxSupersteps: 100}})
		p.boom = func(step int) {
			if step != 3 {
				return
			}
			if worker < 0 {
				panic("boom")
			}
			d.Lease().Run(func(w int) {
				if w == worker {
					panic("boom")
				}
			})
		}
		steps, err := d.Run()
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Superstep != 3 || pe.Worker != worker || pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Fatalf("worker %d: err = %v, want a panic at superstep 3 on worker %d", worker, err, worker)
		}
		if steps != 3 || err.Error() != fmt.Sprintf("test: panic at superstep 3 on worker %d: boom", worker) {
			t.Fatalf("steps = %d, err = %q", steps, err)
		}
	}
	if Default().InFlight() != 0 {
		t.Fatalf("inflight = %d after failed runs, want 0", Default().InFlight())
	}
}

func TestDriverCtxAbortsWithoutRollback(t *testing.T) {
	// Faults scheduled but the abort must win at the barrier: no fault
	// fires, no rollback happens, and the cause comes back wrapped.
	var (
		steps int
		stats *bsp.Stats
	)
	err := Default().Submit(context.Background(), "test", 2, func(j *Job) error {
		j.Cancel(nil)
		var d *Driver[int]
		_, d, stats = runCounting(1000, DriverConfig{Name: "test", EngineConfig: EngineConfig{
			Workers: 2, MaxSupersteps: 10000, Job: j,
			CheckpointEvery: 2, Faults: NewFaultPlan(7),
		}})
		var err error
		steps, err = d.Run()
		return err
	}).Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if steps != 0 {
		t.Fatalf("steps = %d, want 0 (cancelled before the first barrier)", steps)
	}
	if stats.Recovery.Rollbacks != 0 {
		t.Fatalf("rollbacks = %d, want 0 on abort", stats.Recovery.Rollbacks)
	}
}

func TestDriverCtxDeadlineCause(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := Default().Submit(ctx, "test", 1, func(j *Job) error {
		<-j.Context().Done()
		_, d, _ := runCounting(1000, DriverConfig{Name: "test", EngineConfig: EngineConfig{Workers: 1, MaxSupersteps: 10000, Job: j}})
		_, err := d.Run()
		return err
	}).Wait()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSchedulerAdmitsFIFO(t *testing.T) {
	s := NewScheduler(2, 1)
	defer s.Close()
	gate := make(chan struct{})
	var order []int64
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	mk := func() *Job {
		return s.Submit(context.Background(), "j", 2, func(j *Job) error {
			<-mu
			order = append(order, j.ID())
			mu <- struct{}{}
			<-gate
			return nil
		})
	}
	j1 := mk()
	// Ensure j1 is admitted before the others are submitted, so the
	// FIFO order under test is deterministic.
	for s.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	j2 := mk()
	for s.QueueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	j3 := mk()
	for s.QueueLen() < 2 {
		time.Sleep(time.Millisecond)
	}
	if got := s.InFlight(); got != 1 {
		t.Fatalf("inflight = %d, want 1", got)
	}
	close(gate)
	for _, j := range []*Job{j1, j2, j3} {
		if err := j.Wait(); err != nil {
			t.Fatalf("job %d: %v", j.ID(), err)
		}
	}
	if len(order) != 3 || order[0] != j1.ID() || order[1] != j2.ID() || order[2] != j3.ID() {
		t.Fatalf("admission order %v, want [%d %d %d]", order, j1.ID(), j2.ID(), j3.ID())
	}
	if s.InFlight() != 0 || s.QueueLen() != 0 {
		t.Fatalf("scheduler not drained: inflight=%d queued=%d", s.InFlight(), s.QueueLen())
	}
}

func TestSchedulerCancelWhileQueued(t *testing.T) {
	s := NewScheduler(2, 1)
	defer s.Close()
	gate := make(chan struct{})
	ran := int32(0)
	j1 := s.Submit(context.Background(), "holder", 2, func(j *Job) error {
		<-gate
		return nil
	})
	for s.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	j2 := s.Submit(context.Background(), "queued", 2, func(j *Job) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	for s.QueueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	cause := errors.New("operator cancelled")
	j2.Cancel(cause)
	if err := j2.Wait(); !errors.Is(err, cause) {
		t.Fatalf("queued job err = %v, want the cancel cause", err)
	}
	if st := j2.State(); st != JobCancelled {
		t.Fatalf("queued job state = %v, want cancelled", st)
	}
	if atomic.LoadInt32(&ran) != 0 {
		t.Fatal("cancelled queued job ran its function")
	}
	if s.QueueLen() != 0 {
		t.Fatalf("queue len = %d after cancel, want 0", s.QueueLen())
	}
	close(gate)
	if err := j1.Wait(); err != nil {
		t.Fatalf("holder: %v", err)
	}
	if s.InFlight() != 0 {
		t.Fatalf("inflight = %d, want 0", s.InFlight())
	}
}

// A running job cancelled with or without a cause ends cancelled, not
// failed, and returns the cause.
func TestJobCancelMidRunFreesSlotAndRunsCleanups(t *testing.T) {
	s := NewScheduler(2, 2)
	defer s.Close()
	for _, cause := range []error{nil, errors.New("operator cancelled")} {
		block := make(chan struct{}, 1)
		var cleaned []string
		job := s.Submit(context.Background(), "test", 2, func(j *Job) error {
			j.OnCleanup(func() { cleaned = append(cleaned, "first") })
			j.OnCleanup(func() { cleaned = append(cleaned, "second") })
			p, d, _ := runCounting(1000, DriverConfig{Name: "test", EngineConfig: EngineConfig{Workers: 2, MaxSupersteps: 10000, Job: j}})
			p.block = block
			_, err := d.Run()
			return err
		})
		block <- struct{}{} // let one superstep through
		for job.Steps() == 0 {
			time.Sleep(time.Millisecond)
		}
		job.Cancel(cause)
		block <- struct{}{} // release the superstep in flight
		err := job.Wait()
		want := cause
		if want == nil {
			want = context.Canceled
		}
		if !errors.Is(err, want) {
			t.Fatalf("err = %v, want %v", err, want)
		}
		if st := job.State(); st != JobCancelled {
			t.Fatalf("cause %v: state = %v, want cancelled", cause, st)
		}
		// The admission slot is back and cleanups ran LIFO.
		if s.InFlight() != 0 {
			t.Fatalf("inflight = %d after cancel, want 0", s.InFlight())
		}
		if len(cleaned) != 2 || cleaned[0] != "second" || cleaned[1] != "first" {
			t.Fatalf("cleanups = %v, want LIFO [second first]", cleaned)
		}
	}
}

func TestJobTraceStreams(t *testing.T) {
	s := NewScheduler(2, 1)
	defer s.Close()
	job := s.Submit(context.Background(), "trace", 2, func(j *Job) error {
		_, d, _ := runCounting(5, DriverConfig{Name: "trace", EngineConfig: EngineConfig{Workers: 2, MaxSupersteps: 100, Job: j}})
		_, err := d.Run()
		return err
	})
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if job.State() != JobSucceeded {
		t.Fatalf("state = %v, want succeeded", job.State())
	}
	all := job.TraceSince(0)
	if len(all) != 5 || job.Steps() != 5 {
		t.Fatalf("trace has %d records (Steps %d), want 5", len(all), job.Steps())
	}
	if tail := job.TraceSince(3); len(tail) != 2 {
		t.Fatalf("TraceSince(3) returned %d records, want 2", len(tail))
	}
	if job.TraceSince(5) != nil {
		t.Fatal("TraceSince(len) should be nil")
	}
}

// A job's trace is the one copy of its records: two drivers run back
// to back on one job leave TraceSince(0) as their runs' records
// concatenated, each run's Stats.Supersteps is its segment, and a
// reader polling the trace meanwhile sees a growing prefix of it.
func TestJobTraceConcatenatesItsRuns(t *testing.T) {
	s := NewScheduler(2, 1)
	defer s.Close()
	var runs [2]*bsp.Stats
	start := make(chan struct{})
	job := s.Submit(context.Background(), "trace", 2, func(j *Job) error {
		<-start
		for i, limit := range []int{3, 40} {
			_, d, stats := runCounting(limit, DriverConfig{Name: "trace", EngineConfig: EngineConfig{Workers: 2, MaxSupersteps: 100, Job: j}})
			if _, err := d.Run(); err != nil {
				return err
			}
			runs[i] = stats
		}
		return nil
	})
	var seen []bsp.SuperstepStats
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			end := job.State().Terminal()
			seen = append(seen, job.TraceSince(len(seen))...)
			if n := job.Steps(); n < len(seen) {
				t.Errorf("Steps() = %d after %d records were read", n, len(seen))
			}
			if end {
				return
			}
		}
	}()
	close(start)
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	<-done
	all := job.TraceSince(0)
	want := append(append([]bsp.SuperstepStats(nil), runs[0].Supersteps...), runs[1].Supersteps...)
	if len(runs[0].Supersteps) != 3 || len(runs[1].Supersteps) != 40 || job.Steps() != 43 {
		t.Fatalf("runs recorded %d and %d supersteps, job %d; want 3, 40, 43",
			len(runs[0].Supersteps), len(runs[1].Supersteps), job.Steps())
	}
	if !reflect.DeepEqual(all, want) {
		t.Fatal("TraceSince(0) is not the two runs' records concatenated")
	}
	if !reflect.DeepEqual(seen, all) {
		t.Fatalf("the concurrent reader read %d records, not the trace's %d", len(seen), len(all))
	}
	if &runs[1].Supersteps[0] != &job.trace[3] {
		t.Fatal("the second run's Stats.Supersteps is a copy of the job's trace, not a view of it")
	}
}

func TestSubmitFailureStates(t *testing.T) {
	s := NewScheduler(1, 1)
	defer s.Close()
	boom := errors.New("boom")
	if err := s.Submit(context.Background(), "fail", 1, func(j *Job) error { return boom }).Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	j := s.Submit(context.Background(), "fail", 1, func(j *Job) error { return boom })
	j.Wait()
	if j.State() != JobFailed {
		t.Fatalf("state = %v, want failed", j.State())
	}
	ok := s.Submit(context.Background(), "ok", 1, func(j *Job) error { return nil })
	if err := ok.Wait(); err != nil || ok.State() != JobSucceeded {
		t.Fatalf("state = %v err = %v, want succeeded/nil", ok.State(), err)
	}
}

// clockPolicy runs three supersteps of a compute phase in which worker
// 1 sleeps, a no-op delivery phase and a serial sleep between them.
type clockPolicy struct {
	countPolicy
	nap time.Duration
}

func (p *clockPolicy) Superstep(step int, ss *bsp.SuperstepStats) (int, error) {
	p.d.Lease().Run(func(w int) {
		if w == 1 {
			time.Sleep(2 * p.nap)
		}
	})
	time.Sleep(p.nap)
	p.d.Lease().Run(func(w int) {})
	p.steps++
	return 1, nil
}

// TestDriverClock: the driver charges each superstep its first phase as
// compute, its second as delivery, the rest of Superstep as serial and
// its save as checkpoint; the totals add the supersteps' clocks to what
// fell between them and stay within the run's span. Stamping a phase
// allocates nothing.
func TestDriverClock(t *testing.T) {
	const nap = time.Millisecond
	stats := &bsp.Stats{Workers: 2}
	p := &clockPolicy{countPolicy: countPolicy{limit: 3}, nap: nap}
	d := NewDriver[int](p, stats, DriverConfig{Name: "clock", EngineConfig: EngineConfig{Workers: 2, MaxSupersteps: 10, CheckpointEvery: 1}})
	p.d = d
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	var sum bsp.Clock
	for i, ss := range stats.Supersteps {
		c := ss.Clock
		if c.Compute.BusyMax < 2*nap || c.Compute.Wall < c.Compute.BusyMax || c.Compute.BusyMax < c.Compute.BusyMean {
			t.Errorf("superstep %d: compute %+v, want wall >= busy max >= %v and busy max >= mean", i, c.Compute, 2*nap)
		}
		if c.Delivery.Wall <= 0 || c.Serial < nap || c.Checkpoint <= 0 {
			t.Errorf("superstep %d: delivery %v, serial %v, checkpoint %v; want each stamped", i, c.Delivery.Wall, c.Serial, c.Checkpoint)
		}
		sum.Add(c)
	}
	if stats.Clock.Named() < sum.Named() || stats.Clock.Named() > stats.Wall {
		t.Errorf("clock names %v, supersteps %v, run span %v: want supersteps <= named <= span", stats.Clock.Named(), sum.Named(), stats.Wall)
	}

	pool := NewPool(2)
	defer pool.Close()
	l := pool.Lease(2)
	noop := func(int) {}
	if avg := testing.AllocsPerRun(100, func() { l.Run(noop) }); avg != 0 {
		t.Errorf("a stamped phase allocates %.1f times, want 0", avg)
	}
}

// TestDriverReadsRunAllocation: the driver reads the heap through
// runtime/metrics, without stopping the world, and a run that
// allocates 4 MiB in one superstep reads at least that much.
func TestDriverReadsRunAllocation(t *testing.T) {
	const size = 4 << 20
	var sink []byte
	p, d, stats := runCounting(3, DriverConfig{Name: "alloc", EngineConfig: EngineConfig{Workers: 1, MaxSupersteps: 10}})
	p.boom = func(step int) {
		if step == 1 {
			sink = make([]byte, size)
		}
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink) != size || stats.TotalAllocDelta < size {
		t.Fatalf("TotalAllocDelta = %d after allocating %d bytes, want at least that", stats.TotalAllocDelta, size)
	}
}
