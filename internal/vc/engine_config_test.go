package vc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	"vcgraph/internal/runtime"
)

// Programs that never finish, so a zero Config runs into each engine's
// default cap. On cliqueAndIsolated the pregel and gas ones keep
// exactly the clique computing after superstep 0.
type (
	restlessPregel struct{ k VertexID }
	restlessGAS    struct{}
	restlessBlock  struct{}
	restlessAsync  struct{}
)

func (restlessPregel) Init(*graph.Graph, VertexID) int { return 0 }
func (p restlessPregel) Compute(ctx *pregel.Context[int, int], _ []int) {
	if ctx.ID() >= p.k {
		ctx.VoteToHalt()
	}
}

func (restlessGAS) Init(*graph.Graph, VertexID) int   { return 0 }
func (restlessGAS) Gather(VertexID, float64, int) int { return 0 }
func (restlessGAS) Zero() int                         { return 0 }
func (restlessGAS) Sum(a, b int) int                  { return a + b }
func (restlessGAS) Apply(v *int, _ int) bool          { *v++; return true }

func (restlessBlock) Init(*graph.Graph, VertexID) int { return 0 }
func (restlessBlock) Combine(a, _ int) int            { return a }
func (restlessBlock) ComputeBlock(*blockcentric.BlockContext[int, int], *blockcentric.Inbox[int]) {
}

func (restlessAsync) Init(*graph.Graph, VertexID) int { return 0 }
func (restlessAsync) Update(_ *async.Context[int], v VertexID) []VertexID {
	return []VertexID{v}
}

// cliqueAndIsolated is a 5-clique on vertices 0..4 beside five isolated
// vertices: runs and range place the clique differently at every
// worker count above 1.
func cliqueAndIsolated() *graph.Graph {
	g := graph.New(10, false)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddEdge(VertexID(u), VertexID(v))
		}
	}
	return g
}

// owned counts, per worker, the vertices of vs that owner places there.
func owned(owner []int32, workers int, vs []VertexID) []int64 {
	out := make([]int64, workers)
	for _, v := range vs {
		out[owner[v]]++
	}
	return out
}

// TestEngineDefaults pins what a zero Config means on each engine — the
// worker count, the cap, and the partition — so moving the defaults
// into runtime.EngineConfig.Prepare cannot change one silently.
func TestEngineDefaults(t *testing.T) {
	g := cliqueAndIsolated()
	n := g.N()
	clique := []VertexID{0, 1, 2, 3, 4}
	all := []VertexID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	pw := runtime.DefaultWorkers()
	for _, tc := range []struct {
		name    string
		run     func() (*bsp.Stats, error)
		workers int
		cap     int
		// active is superstep 1's per-worker Active count (nil: no
		// partition to read).
		active []int64
	}{
		{"pregel", func() (*bsp.Stats, error) {
			res, err := pregel.NewEngine[int, int](g, restlessPregel{k: 5}, pregel.Config[int]{}).Run()
			return res.Stats, err
		}, pw, 1 + 10*(n+64), owned(runtime.PartitionRunsCSR(g.CSR(), pw), pw, clique)},
		{"gas", func() (*bsp.Stats, error) {
			res, err := gas.Run[int, int](g, restlessGAS{}, gas.Config{})
			return res.Stats, err
		}, 4, 10 * (n + 64), owned(runtime.PartitionRunsCSR(g.CSR(), 4), 4, clique)},
		{"blockcentric", func() (*bsp.Stats, error) {
			res, err := blockcentric.NewEngine[int, int](g, restlessBlock{}, blockcentric.Config{}).Run()
			return res.Stats, err
		}, 4, 1 + 10*(n+64), owned(runtime.PartitionRangeN(n, 4), 4, all)},
		{"async", func() (*bsp.Stats, error) {
			res, err := async.Run[int](g, restlessAsync{}, async.Config{})
			return res.Stats, err
		}, 1, 200 * (n + 64), nil},
	} {
		stats, err := tc.run()
		if !errors.Is(err, bsp.ErrSuperstepCap) || !strings.Contains(err.Error(), fmt.Sprintf("(cap %d)", tc.cap)) {
			t.Errorf("%s: err = %v, want the superstep cap error with (cap %d)", tc.name, err, tc.cap)
		}
		if stats.Workers != tc.workers {
			t.Errorf("%s: %d workers, want %d", tc.name, stats.Workers, tc.workers)
		}
		if tc.active != nil {
			if got := stats.Supersteps[1].Active; fmt.Sprint(got) != fmt.Sprint(tc.active) {
				t.Errorf("%s: superstep 1 active per worker %v, want %v", tc.name, got, tc.active)
			}
		}
		if g.Pins() != 0 {
			t.Errorf("%s: %d pins held after the run", tc.name, g.Pins())
		}
	}
}

// TestBadPartitionFailsTheRun: a partitioner that leaves a vertex out
// or places one outside [0, Workers) fails the run with an error naming
// the engine, and the failed prepare holds no pin.
func TestBadPartitionFailsTheRun(t *testing.T) {
	short := func(g *graph.Graph, _ int) []int32 { return make([]int32, g.N()-1) }
	outside := func(g *graph.Graph, workers int) []int32 {
		owner := make([]int32, g.N())
		owner[7] = int32(workers)
		return owner
	}
	for _, bad := range []struct {
		name string
		part runtime.Partitioner
		want string
	}{
		{"short", short, "placed 19 vertices, the snapshot has 20"},
		{"outside", outside, "assigned vertex 7 to worker 3"},
	} {
		g := graph.Path(20)
		for _, eng := range []struct {
			name string
			run  func() error
		}{
			{"pregel", func() error {
				_, err := HashMinCC(g, Config{Workers: 3, Partition: bad.part})
				return err
			}},
			{"gas", func() error {
				_, _, err := gas.ConnectedComponents(g, gas.Config{Workers: 3, Partition: bad.part})
				return err
			}},
			{"blockcentric", func() error {
				_, err := blockcentric.ConnectedComponents(g, blockcentric.Config{Workers: 3, Partition: bad.part})
				return err
			}},
		} {
			err := eng.run()
			if err == nil || !strings.HasPrefix(err.Error(), eng.name+": ") || !strings.Contains(err.Error(), bad.want) {
				t.Errorf("%s/%s: err = %v, want %q from %s", eng.name, bad.name, err, bad.want, eng.name)
			}
			if g.Pins() != 0 {
				t.Errorf("%s/%s: %d pins held after a failed prepare", eng.name, bad.name, g.Pins())
			}
		}
	}
}

// TestSequentialEnginesRefuseAWideJob: async and the incremental engine
// run one worker, so a job admitted with a share of 2 fails with an
// error before anything is pinned, instead of tripping the driver's
// lease check.
func TestSequentialEnginesRefuseAWideJob(t *testing.T) {
	sched := runtime.NewScheduler(2, 1)
	defer sched.Close()
	g := graph.Path(20)
	for _, tc := range []struct {
		name string
		run  func(j *runtime.Job) error
	}{
		{"async", func(j *runtime.Job) error {
			_, _, err := async.ConnectedComponents(g, async.Config{Job: j})
			return err
		}},
		{"vc: incremental cc", func(j *runtime.Job) error {
			_, _, err := incRow(g, "cc", Args{}, nil, Config{Job: j})
			return err
		}},
	} {
		err := sched.Submit(context.Background(), tc.name, 2, tc.run).Wait()
		if err == nil || !strings.Contains(err.Error(), tc.name+": engine is sequential") {
			t.Errorf("%s: err = %v, want the sequential-engine refusal", tc.name, err)
		}
		if g.Pins() != 0 {
			t.Errorf("%s: %d pins held after a refused run", tc.name, g.Pins())
		}
	}
	// LeaseShare is what the service and vcrun admit these engines with.
	if LeaseShare("async", 4) != 1 || LeaseShare("inc", 4) != 1 || LeaseShare("gas", 4) != 4 {
		t.Error("LeaseShare: async and inc must take a share of 1, the rest their workers")
	}
}
