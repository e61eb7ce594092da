package runtime

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"vcgraph/internal/bsp"
)

// frameWord is the element type of framePolicy's frames; a type of its
// own keeps their cached arrays on a list no other buffer shares.
type frameWord int64

const frameLen = 64

// framePolicy counts supersteps like countPolicy, with frames leased
// the way the engines lease theirs: each is a TakeArray of frameLen
// words whose first word holds the step count plus one. It tracks which
// frames are out, so a frame retired twice, or read after it was
// retired, fails the test.
type framePolicy struct {
	t     *testing.T
	steps int
	limit int
	// exit, when set, ends the run at superstep exitAt: "error" returns
	// an error, "panic" panics, "cancel" cancels the run's job.
	exit   string
	exitAt int
	job    *Job
	live   map[*frameWord]bool // frames taken and not yet retired
	seen   map[*frameWord]bool // every backing array a frame used
}

var errFrameTest = errors.New("policy error")

func (p *framePolicy) Quiescent(step, pending int) bool { return p.steps >= p.limit }
func (p *framePolicy) Superstep(step int, ss *bsp.SuperstepStats) (int, error) {
	if step == p.exitAt {
		switch p.exit {
		case "error":
			return 0, errFrameTest
		case "panic":
			panic("superstep failed")
		case "cancel":
			p.job.Cancel(nil)
		}
	}
	ss.Work[0]++
	p.steps++
	return 1, nil
}
func (p *framePolicy) Snapshot(full bool) []frameWord {
	f := TakeArray[frameWord](frameLen)
	f[0] = frameWord(p.steps + 1)
	p.live[&f[0]], p.seen[&f[0]] = true, true
	return f
}
func (p *framePolicy) Restore(f []frameWord, step int) {
	if !p.live[&f[0]] || f[0] == 0 {
		p.t.Errorf("restored a retired frame")
	}
	p.steps = int(f[0] - 1)
}
func (p *framePolicy) FrameBytes(f []frameWord) int64 { return int64(len(f)) * 8 }
func (p *framePolicy) Retire(f []frameWord) {
	if !p.live[&f[0]] {
		p.t.Errorf("retired a frame that is not out")
	}
	delete(p.live, &f[0])
	KeepArray(f)
}

// heldArrays reports how many arrays of T the cache holds, and their
// bytes.
func heldArrays[T any]() (n int, bytes int64) {
	runBuffers.mu.Lock()
	defer runBuffers.mu.Unlock()
	l := list[array[T]](runBuffers)
	for _, it := range l.items[l.head:] {
		n++
		bytes += it.bytes
	}
	return n, bytes
}

// TestCheckpointFramesReturnOnEveryExit: however a faulted run ends —
// quiescence, the step cap, a policy error, cancellation or a panic —
// every frame it leased, the start frame among them, goes back to the
// run-buffer cache exactly once, and the cache then holds every array
// the run's frames ever used. The plan rolls back to the start frame
// past a corrupt first frame, then past a corrupt full frame to the
// generation below it, then to the newest frame.
func TestCheckpointFramesReturnOnEveryExit(t *testing.T) {
	plan := PlanOf(CorruptCheckpoint(1), Crash(1), CorruptCheckpoint(10), Crash(11), Crash(14))
	for _, tc := range []struct {
		exit    string
		cap     int
		wantErr error
	}{
		{"", 100, nil},
		{"cap", 16, bsp.ErrSuperstepCap},
		{"error", 100, errFrameTest},
		{"cancel", 100, context.Canceled},
		{"panic", 100, nil},
	} {
		EmptyRunCache()
		p := &framePolicy{t: t, limit: 20, exit: tc.exit, exitAt: 17,
			live: map[*frameWord]bool{}, seen: map[*frameWord]bool{}}
		stats := &bsp.Stats{Workers: 1}
		err := Default().Submit(context.Background(), "frames", 1, func(j *Job) error {
			p.job = j
			_, err := NewDriver[[]frameWord](p, stats, DriverConfig{Name: "frames", EngineConfig: EngineConfig{
				Workers: 1, MaxSupersteps: tc.cap, Job: j,
				CheckpointEvery: 1, FullSnapshotEvery: 3, Faults: plan,
			}}).Run()
			return err
		}).Wait()
		var pe *PanicError
		switch {
		case tc.exit == "panic" && !errors.As(err, &pe):
			t.Fatalf("panic exit: err = %v, want a *PanicError", err)
		case tc.exit != "panic" && !errors.Is(err, tc.wantErr):
			t.Fatalf("exit %q: err = %v, want %v", tc.exit, err, tc.wantErr)
		}
		if r := stats.Recovery; r.Rollbacks != 3 || r.CorruptedCheckpoints != 2 {
			t.Fatalf("exit %q: %d rollbacks, %d corrupted, want 3 and 2", tc.exit, r.Rollbacks, r.CorruptedCheckpoints)
		}
		if len(p.live) != 0 {
			t.Errorf("exit %q: %d frames not given back", tc.exit, len(p.live))
		}
		if n, bytes := heldArrays[frameWord](); n != len(p.seen) || bytes != int64(len(p.seen))*frameLen*8 {
			t.Errorf("exit %q: cache holds %d frame arrays (%d B), want all %d the run used", tc.exit, n, bytes, len(p.seen))
		}
	}
	EmptyRunCache()
}

// TestWorklistDeltaIDsMatchScan: a worklist delta frame's ids, sorted
// from the list of pops, are the ascending ids TakeDirty scans off the
// same flags, for deltas far below n and up to every vertex; a full
// frame's ids are nil. Every frame leaves every flag clear.
func TestWorklistDeltaIDsMatchScan(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(3))
	p := &WorklistRunner[int]{N: n}
	p.dirty, p.popped = TakeArray[bool](n), TakeArray[VertexID](n)
	defer p.Release()
	p.Queue = NewFIFO(n)
	for _, pops := range []int{0, 1, 7, 64, 300, 2000, 20000} {
		for i := 0; i < pops; i++ {
			p.mark(VertexID(rng.Intn(n)))
		}
		flags := slices.Clone(p.dirty)
		want := TakeDirty[VertexID](flags, false)
		got := p.takeDirty(false)
		if !slices.Equal(got, want) || got == nil {
			t.Fatalf("%d pops: ids %v, want %v", pops, got, want)
		}
		if slices.Contains(p.dirty, true) || p.npop != 0 {
			t.Fatalf("%d pops: marks left after the frame", pops)
		}
		KeepArray(got)
		KeepArray(want)
	}
	for i := 0; i < 300; i++ {
		p.mark(VertexID(rng.Intn(n)))
	}
	if ids := p.takeDirty(true); ids != nil {
		t.Fatalf("full frame: ids %v, want nil", ids)
	}
	if slices.Contains(p.dirty, true) || p.npop != 0 {
		t.Fatal("full frame: marks left after the frame")
	}
}
