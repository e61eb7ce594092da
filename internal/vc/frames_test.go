package vc

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	"vcgraph/internal/pregel"
	rt "vcgraph/internal/runtime"
)

// frameFaults rolls a run back to its start frame past a corrupt first
// frame, then past a corrupt full frame to the generation below it (at
// CheckpointEvery 2 and FullSnapshotEvery 4 the frame saved at barrier
// 18 is full), then to its newest frame.
var frameFaults = rt.PlanOf(rt.CorruptCheckpoint(2), rt.Crash(3),
	rt.CorruptCheckpoint(18), rt.Crash(19), rt.Crash(27))

// panicsAt floods the minimum id along edges, a message on every edge
// each superstep, and panics at superstep at; it never halts.
type panicsAt struct{ at int }

func (panicsAt) Init(_ *graph.Graph, id VertexID) int { return int(id) }
func (p panicsAt) Compute(ctx *pregel.Context[int, int], msgs []int) {
	if ctx.Superstep() == p.at {
		panic("compute failed")
	}
	for _, m := range msgs {
		*ctx.Value() = min(*ctx.Value(), m)
	}
	ctx.SendToNeighbors(*ctx.Value())
}

// TestCheckpointFramesCarryNoState: a faulted run's checkpoint frames
// go back to the run-buffer cache, and later frames, of this run and
// of the next, are cut from them. Faulted SSSP and CC on every engine,
// checkpointing every 2 supersteps with a full frame every 4, run back
// to back on one pool, with a clean PageRank run and a faulted run that
// panics mid-run between them. Each must read the values and exact
// counts, every Recovery counter among them, of the same run on an
// emptied cache, and that run the values of a clean one: a frame given
// back while a rollback can still read it reads zeroed. The graph is a
// 20 x 20 weighted grid and 100 separate pairs, and SSSP starts at the
// grid's far corner, so a zeroed CC label or SSSP distance shows in the
// result. Run it under -race -count=10.
func TestCheckpointFramesCarryNoState(t *testing.T) {
	g := stragglerGraph(20, 600)
	graph.RandomWeights(g, 5)
	args := Args{Src: 399, Alpha: 0.85, Eps: 1e-6}
	faulted := Config{CheckpointEvery: 2, FullSnapshotEvery: 4, Faults: frameFaults}
	var keys []Key
	for _, algo := range []string{"sssp", "cc"} {
		for _, engine := range []string{plan.EnginePregel, plan.EngineGAS, plan.EngineAsync, plan.EngineBlockcentric} {
			keys = append(keys, Key{algo, engine})
		}
	}
	sched := rt.NewScheduler(2, 2)
	defer sched.Close()
	type outcome struct {
		vals  []float64
		stats *bsp.Stats
	}
	run := func(key Key, cfg Config) (outcome, error) {
		var out outcome
		err := sched.Submit(context.Background(), key.Algo+"/"+key.Engine, LeaseShare(key.Engine, 2), func(j *rt.Job) error {
			cfg.Workers, cfg.Job = LeaseShare(key.Engine, 2), j
			vals, stats, err := Matrix[key](g, args, Env{Config: cfg})()
			if err == nil {
				out = outcome{vals, counts(stats)}
			}
			return err
		}).Wait()
		return out, err
	}
	panicking := func() error {
		return sched.Submit(context.Background(), "panicking", 2, func(j *rt.Job) error {
			cfg := rt.EngineConfig{Workers: 2, Job: j, CheckpointEvery: faulted.CheckpointEvery,
				FullSnapshotEvery: faulted.FullSnapshotEvery, Faults: faulted.Faults}
			_, err := pregel.NewEngine[int, int](g, panicsAt{at: 23}, pregel.Config[int]{EngineConfig: cfg}).Run()
			return err
		}).Wait()
	}
	defer rt.EmptyRunCache()
	want := make([]outcome, len(keys))
	for i, key := range keys {
		rt.EmptyRunCache()
		var err error
		if want[i], err = run(key, faulted); err != nil {
			t.Fatal(err)
		}
		clean, err := run(key, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for v := range clean.vals {
			if math.Float64bits(clean.vals[v]) != math.Float64bits(want[i].vals[v]) {
				t.Errorf("%v: value[%d] = %v faulted, %v clean", key, v, want[i].vals[v], clean.vals[v])
				break
			}
		}
		if r := want[i].stats.Recovery; r.Rollbacks == 0 || r.CorruptedCheckpoints == 0 {
			t.Fatalf("%v: %d rollbacks, %d corrupted checkpoints, want some of each", key, r.Rollbacks, r.CorruptedCheckpoints)
		}
	}
	rt.EmptyRunCache()
	for pass := 0; pass < 2; pass++ {
		for i, key := range keys {
			got, err := run(key, faulted)
			if err != nil {
				t.Fatal(err)
			}
			for v := range got.vals {
				if math.Float64bits(got.vals[v]) != math.Float64bits(want[i].vals[v]) {
					t.Errorf("%v: value[%d] = %v on reused frames, %v on new ones", key, v, got.vals[v], want[i].vals[v])
					break
				}
			}
			if !reflect.DeepEqual(got.stats, want[i].stats) {
				t.Errorf("%v: counts differ on reused frames: recovery %+v vs %+v, work %d vs %d, supersteps %d vs %d", key,
					got.stats.Recovery, want[i].stats.Recovery, got.stats.TotalWork, want[i].stats.TotalWork,
					got.stats.NumSupersteps(), want[i].stats.NumSupersteps())
			}
			if _, err := run(Key{"pagerank", key.Engine}, Config{}); err != nil {
				t.Fatal(err)
			}
			var pe *rt.PanicError
			if err := panicking(); !errors.As(err, &pe) {
				t.Fatalf("panicking run: err = %v, want a *PanicError", err)
			}
		}
	}
}

// TestWarmFaultedRunBytes: once a faulted run has filled the cache, a
// second asynchronous PageRank, which saves a frame every two updates,
// cuts each frame from arrays earlier frames gave back. What it
// allocates per saved frame is then the frame's header and its share of
// the trace, about 0.8 KiB; a fresh full frame is 24 KiB of values, and
// fresh frames read about 18 KiB per frame on average. A race build
// only logs.
func TestWarmFaultedRunBytes(t *testing.T) {
	g := graph.PreferentialAttachment(3000, 3, 1)
	row := Matrix[Key{"pagerank", plan.EngineAsync}]
	env := Env{Config: Config{Workers: 1, CheckpointEvery: 2, FullSnapshotEvery: 4, Faults: rt.NewFaultPlan(1)}}
	const bound = 2048
	var m0, m1 runtime.MemStats
	var stats *bsp.Stats
	for run := 0; run < 2; run++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		var err error
		if _, stats, err = row(g, Args{Alpha: 0.85, K: 30, Eps: 1e-9}, env)(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
	}
	frames := stats.Recovery.CheckpointsSaved
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(frames)
	t.Logf("%d frames, %.0f bytes per frame on the second run", frames, per)
	if per > bound && !raceEnabled {
		t.Errorf("%.0f bytes per saved frame on the second faulted run, want at most %d", per, bound)
	}
}
