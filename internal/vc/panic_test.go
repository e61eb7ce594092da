package vc

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	"vcgraph/internal/runtime"
)

// panicky never halts, and its Compute panics at superstep 3 on victim.
type panicky struct{ victim VertexID }

func (panicky) Init(*graph.Graph, VertexID) int { return 0 }
func (p panicky) Compute(ctx *pregel.Context[int, int], _ []int) {
	if ctx.Superstep() == 3 && ctx.ID() == p.victim {
		panic("compute failed")
	}
}

// TestPanickingProgramFailsOneJob: a pregel program that panics at
// superstep 3 on a vertex of worker 1 fails its own job with that
// location, while three matrix rows sharing its scheduler and pool
// succeed with their job-less answers, and nothing stays pinned or in
// flight. A job-less run of the program returns the same error.
func TestPanickingProgramFailsOneJob(t *testing.T) {
	g := graph.Grid(8, 8)
	owner := runtime.PartitionRunsCSR(g.CSR(), 4) // pregel's default placement
	prog := panicky{victim: VertexID(slices.Index(owner, 1))}
	runPanicky := func(j *runtime.Job) error {
		_, err := pregel.NewEngine[int, int](g, prog, pregel.Config[int]{EngineConfig: runtime.EngineConfig{Workers: 4, Job: j}}).Run()
		return err
	}
	checkPanic := func(err error) {
		t.Helper()
		var pe *runtime.PanicError
		if !errors.As(err, &pe) || pe.Superstep != 3 || pe.Worker != 1 {
			t.Fatalf("err = %v, want a panic at superstep 3 on worker 1", err)
		}
	}
	args := Args{Src: 0, Alpha: 0.85, K: 10, Eps: 1e-9}
	keys := []Key{{"pagerank", "pregel"}, {"sssp", "gas"}, {"cc", "blockcentric"}}

	sched := runtime.NewScheduler(4, 4)
	defer sched.Close()
	bad := sched.Submit(context.Background(), "panicky", 4, runPanicky)
	jobs := make([]*runtime.Job, len(keys))
	got := make([][]float64, len(keys))
	for i, k := range keys {
		jobs[i] = sched.Submit(context.Background(), k.Algo+"/"+k.Engine, 4, func(j *runtime.Job) (err error) {
			got[i], _, err = Matrix[k](g, args, Env{Config: Config{Workers: 4, Job: j}})()
			return err
		})
	}
	checkPanic(bad.Wait())
	if bad.State() != runtime.JobFailed {
		t.Fatalf("panicking job ended %v, want failed", bad.State())
	}
	for i, k := range keys {
		if err := jobs[i].Wait(); err != nil || jobs[i].State() != runtime.JobSucceeded {
			t.Fatalf("%v: state %v err %v, want succeeded", k, jobs[i].State(), err)
		}
		want, _, err := Matrix[k](g, args, Env{Config: Config{Workers: 4}})()
		if err != nil {
			t.Fatalf("%v job-less: %v", k, err)
		}
		if !slices.Equal(got[i], want) {
			t.Fatalf("%v: values under the shared scheduler differ from the job-less run", k)
		}
	}
	if g.Pins() != 0 || sched.InFlight() != 0 {
		t.Fatalf("pins %d, inflight %d after every job ended, want 0 and 0", g.Pins(), sched.InFlight())
	}
	checkPanic(runPanicky(nil))
}

// kcorePanicky is k-core whose Compute panics at superstep 1 on victim.
type kcorePanicky struct {
	*kcoreProgram
	victim VertexID
}

func (p kcorePanicky) Compute(ctx *pregel.Context[kcoreValue, kcoreMsg], msgs []kcoreMsg) {
	if ctx.Superstep() == 1 && ctx.ID() == p.victim {
		panic("compute failed")
	}
	p.kcoreProgram.Compute(ctx, msgs)
}

// TestPanickedRunReturnsEmptyBuffers: a W = 2 pregel k-core run that
// panics mid-superstep, on worker 1's last vertex while the lanes hold
// that superstep's messages and the slabs the previous one's, gives its
// buffers back to the run-buffer cache emptied: a clean run made next,
// on those buffers, reads the same coreness and Stats as one made with
// the cache empty.
func TestPanickedRunReturnsEmptyBuffers(t *testing.T) {
	g := graph.RMAT(12, 8<<12, 1)
	owner := runtime.PartitionRunsCSR(g.CSR(), 2) // pregel's default placement
	victim := VertexID(-1)
	for v, w := range owner {
		if w == 1 {
			victim = VertexID(v)
		}
	}
	clean := func() ([]int32, *bsp.Stats) {
		res, err := KCore(g, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res.Core, counts(res.Stats)
	}
	runtime.EmptyRunCache()
	wantCore, wantStats := clean()

	prog := kcorePanicky{kcoreProgram: newKCoreProgram(g, false), victim: victim}
	_, err := pregel.NewEngine[kcoreValue, kcoreMsg](g, prog, pregel.Config[kcoreMsg]{EngineConfig: runtime.EngineConfig{Workers: 2}}).Run()
	var pe *runtime.PanicError
	if !errors.As(err, &pe) || pe.Superstep != 1 || pe.Worker != 1 {
		t.Fatalf("err = %v, want a panic at superstep 1 on worker 1", err)
	}

	core, stats := clean()
	if !slices.Equal(core, wantCore) {
		t.Fatal("coreness after a panicked run differs from a run on an empty cache")
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Fatalf("stats after a panicked run differ from a run on an empty cache: work %d vs %d, messages %d vs %d",
			stats.TotalWork, wantStats.TotalWork, stats.TotalMessages, wantStats.TotalMessages)
	}
}
