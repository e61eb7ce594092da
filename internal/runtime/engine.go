package runtime

import (
	"fmt"

	"vcgraph/internal/graph"
)

// EngineConfig is the run environment every engine shares: workers, a
// step cap, vertex placement, message direction, checkpoint cadence,
// faults, the pinned snapshot, and the job the run
// belongs to. The engines differ in their model, not in this
// environment, so it is declared once; what a field means on each
// engine is stated on the field.
type EngineConfig struct {
	// Workers is the parallelism, the P of the time-processor product:
	// pregel and gas workers, blockcentric blocks (each block is one
	// worker). 0 is the engine's default: DefaultWorkers() on pregel, 4
	// on gas and blockcentric. Under a Job the job's admitted share
	// wins. async and the incremental engine are sequential and ignore
	// it.
	Workers int
	// MaxSupersteps caps the run; exceeding it returns
	// bsp.ErrSuperstepCap wrapped with the cap. 0 is the engine's
	// default for n vertices: 1+10·(n+64) supersteps on pregel and
	// blockcentric, 10·(n+64) iterations on gas, 200·(n+64) vertex
	// updates on async, whose worklist incremental CC/SSSP drain.
	MaxSupersteps int
	// Partition assigns vertices to workers; nil is the engine's default,
	// degree-balanced runs (PartitionRunsCSR) on pregel and gas, range on
	// blockcentric. Placement changes per-worker load, and hence the
	// measured superstep cost, and the order of an inbox, but not the
	// result of a program that ignores that order (partition.go). It
	// must give every vertex of the pinned snapshot a worker in
	// [0, Workers), or the run fails before it starts. async and the
	// incremental engine ignore it.
	Partition Partitioner
	// Mode selects the message direction: push, pull, or auto (the zero
	// value). pregel gathers combiner broadcasts over transpose spans
	// (pull needs a combiner); gas pulls its scatter (gathers always
	// pull); blockcentric folds block-local messages in place, and under
	// auto does so in the blocks that keep at least half their out-edges
	// inside. async and the incremental engine ignore it.
	Mode DirectionMode
	// CheckpointEvery > 0 snapshots the barrier state every k supersteps.
	// On async, and so on incremental CC/SSSP, it sets the epoch, the
	// updates one superstep applies (64 when unset), and a snapshot
	// follows every epoch.
	CheckpointEvery int
	// FullSnapshotEvery > 1 stores only every Nth checkpoint as a full
	// frame; the ones between are dirty-set deltas patching the frame
	// before them. 0 or 1 keeps every checkpoint full.
	FullSnapshotEvery int
	// Faults schedules deterministic fault injection (nil = none):
	// crashes at barriers, lost or duplicated message batches, corrupted
	// checkpoints. A crash or a lost batch rolls the run back to its
	// newest readable checkpoint. A duplicated batch is discarded by its
	// sequence number on pregel and blockcentric, and absorbed on gas,
	// async and the incremental engine, where activation is a set union.
	// On blockcentric FaultEvent.Worker and Lane are the source and
	// destination blocks; on async and the incremental engine a step is
	// an epoch and its activations are lane 0 → 0's one batch.
	Faults *FaultPlan
	// Snapshot, when non-nil, is an already-pinned CSR generation to run
	// against instead of the graph's current one: the plan layer runs on
	// the generation it sampled. The engine takes and releases its own
	// reference, and a custom Partition must be derived from the same
	// snapshot. The incremental engine pins the graph's delta view and
	// ignores it.
	Snapshot *graph.CSR
	// Job is the scheduler-admitted job the run belongs to: its share
	// sets Workers, every superstep record streams to it, and a panic in
	// the run fails it. Its context aborts the run at the next barrier
	// once cancelled or past its deadline — before fault firing and
	// rollback, so an abort never replays work — and the run returns the
	// context's cause. nil runs the engine as a job of Default(). async
	// and the incremental engine need a share of 1.
	Job *Job
}

// EngineDefaults are an engine's answers for what a zero EngineConfig
// leaves open.
type EngineDefaults struct {
	// Name prefixes the run's errors ("pregel", "vc: incremental cc").
	Name string
	// Workers is the default worker count. 0 marks a sequential engine:
	// it runs on one worker whatever Workers says, and a job must hold a
	// share of 1.
	Workers int
	// Cap is the default MaxSupersteps for n vertices.
	Cap func(n int) int
	// Partition is the default placement, computed on the pinned
	// snapshot. nil means the engine places no vertices and ignores
	// Partition; an engine with one does not set Delta.
	Partition func(c *graph.CSR, workers int) []int32
	// Delta pins the graph's delta view instead of a CSR generation.
	Delta bool
}

// Prepared is an engine's resolved run environment.
type Prepared struct {
	// CSR is the pinned snapshot (the delta view's base under Delta).
	CSR *graph.CSR
	// Delta is the pinned delta view, nil unless EngineDefaults.Delta.
	Delta *graph.DeltaCSR
	// Owner maps vertex to worker, and Verts worker to its vertices in
	// ascending order; both nil for an engine that places no vertices.
	// Verts is cut from one array taken from the run-buffer cache, so
	// it must not be read after Release.
	Owner []int32
	Verts [][]graph.VertexID
	// Driver is the environment with Workers and MaxSupersteps resolved,
	// named and capped for runtime.NewDriver.
	Driver DriverConfig
	// Release drops the pin and gives Verts' array back; call it once,
	// when the run ends.
	Release func()
}

// Prepare is the first step of every engine's prepare phase: it
// resolves Workers (the job's share, else c.Workers, else the engine's
// default), pins Snapshot or the graph's current generation, defaults
// the cap from n, and runs and validates the partition. On error it
// holds no pin.
func (c EngineConfig) Prepare(g *graph.Graph, d EngineDefaults) (*Prepared, error) {
	switch {
	case d.Workers == 0:
		if c.Job != nil && c.Job.Workers() != 1 {
			return nil, fmt.Errorf("%s: engine is sequential, but the job's worker share is %d (want 1)", d.Name, c.Job.Workers())
		}
		c.Workers = 1
	case c.Job != nil:
		c.Workers = c.Job.Workers()
	}
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	p := &Prepared{}
	var n int
	if d.Delta {
		view := g.PinDelta()
		p.Delta, p.CSR, n = view, view.Base(), view.N()
		p.Release = func() { g.UnpinDelta(view) }
	} else {
		if c.Snapshot != nil {
			p.CSR = g.PinSnapshot(c.Snapshot)
		} else {
			p.CSR = g.Pin()
		}
		csr := p.CSR
		n = csr.N()
		p.Release = func() { g.Unpin(csr) }
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = d.Cap(n)
	}
	if d.Partition != nil {
		if c.Partition != nil {
			p.Owner = c.Partition(g, c.Workers)
		} else {
			p.Owner = d.Partition(p.CSR, c.Workers)
		}
		verts, store, err := groupByOwner(p.Owner, n, c.Workers)
		if err != nil {
			p.Release()
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		unpin := p.Release
		p.Verts, p.Release = verts, func() {
			unpin()
			KeepArray(store)
		}
	}
	p.Driver = DriverConfig{EngineConfig: c, Name: d.Name}
	return p, nil
}

// groupByOwner checks that owner places each of n vertices on a worker
// in [0, workers) and buckets the vertices by worker, ascending within
// each bucket. It counts the buckets first and cuts them from one
// n-long store taken from the run-buffer cache, which it returns for
// Release to give back. Empty buckets are non-nil, so a bucket is never
// read as "every vertex" by the checkpoint-frame helpers.
func groupByOwner(owner []int32, n, workers int) (verts [][]graph.VertexID, store []graph.VertexID, err error) {
	if len(owner) != n {
		return nil, nil, fmt.Errorf("partitioner placed %d vertices, the snapshot has %d", len(owner), n)
	}
	count := make([]int, workers)
	for v, w := range owner {
		if w < 0 || int(w) >= workers {
			return nil, nil, fmt.Errorf("partitioner assigned vertex %d to worker %d, outside [0, %d)", v, w, workers)
		}
		count[w]++
	}
	store = TakeArray[graph.VertexID](n)
	verts = make([][]graph.VertexID, workers)
	at := 0
	for w, k := range count {
		verts[w] = store[at : at : at+k]
		at += k
	}
	for v, w := range owner {
		verts[w] = append(verts[w], graph.VertexID(v))
	}
	return verts, store, nil
}
