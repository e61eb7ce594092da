package vc

import (
	"fmt"
	"reflect"
	"testing"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/pregel"
	rt "vcgraph/internal/runtime"
)

// Delta-cadence differential suite: the fault matrix of
// differential_test.go rerun with checkpoints stored as dirty-set
// delta chains (CheckpointEvery=1, FullSnapshotEvery=3), so saves land
// at steps 1 (full), 2 (delta), 3 (delta), 4 (full), ... Every run —
// fault-free, crash-mid-chain, corrupt-delta, corrupt-base,
// crash-after-rollback — must stay
// byte-identical to the engine's full-snapshot fault-free baseline,
// and corrupting a frame must invalidate exactly the frames that
// depend on it.

const (
	deltaCK   = 1 // checkpoint every barrier: saves land at steps 1, 2, 3, ...
	deltaFull = 3 // every third frame full: 1 full, 2 delta, 3 delta, 4 full, ...
)

// deltaCell is one engine × parallelism configuration of a workload,
// run under an explicit checkpoint and full-snapshot cadence.
type deltaCell struct {
	name string
	run  func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error)
}

// deltaCase is a fault plan against the delta chain plus the exact
// recovery accounting its firing must leave behind.
type deltaCase struct {
	name  string
	plan  *rt.FaultPlan
	check func(t *testing.T, r bsp.Recovery)
}

// deltaCrash is the barrier whose recovery reads the chain 1 (full) →
// 2 (delta) → 3 (delta): frame k is saved at the end of superstep k-1,
// so crash(3) already sees all three.
const deltaCrash = 3

func deltaCases() []deltaCase {
	return []deltaCase{
		{
			// Crash with a two-delta chain resident: rollback has to
			// reconstruct step 3 by applying frames 2 and 3 onto full
			// frame 1 — and nothing may be skipped or invalidated.
			name: "crash-mid-chain",
			plan: rt.PlanOf(rt.Crash(deltaCrash)),
			check: func(t *testing.T, r bsp.Recovery) {
				if r.Rollbacks == 0 || r.DeltaCheckpointsSaved == 0 {
					t.Errorf("chain crash: rollbacks=%d deltas=%d, want both > 0", r.Rollbacks, r.DeltaCheckpointsSaved)
				}
				if r.CorruptedCheckpoints != 0 || r.InvalidatedCheckpoints != 0 {
					t.Errorf("clean chain restore skipped frames: %+v", r)
				}
			},
		},
		{
			// The mid-chain delta (frame 2) is silently corrupt: recovery
			// must count it once, invalidate the still-readable dependent
			// frame 3, and fall back to the full frame at step 1.
			name: "corrupt-delta-mid-chain",
			plan: rt.PlanOf(rt.CorruptCheckpoint(2), rt.Crash(deltaCrash)),
			check: func(t *testing.T, r bsp.Recovery) {
				if r.CorruptedCheckpoints != 1 || r.InvalidatedCheckpoints != 1 {
					t.Errorf("corrupt mid-chain delta: corrupted=%d invalidated=%d, want 1/1", r.CorruptedCheckpoints, r.InvalidatedCheckpoints)
				}
				if r.Rollbacks == 0 {
					t.Errorf("corrupt mid-chain delta: no rollback recorded: %+v", r)
				}
			},
		},
		{
			// The base full frame is corrupt: the entire generation is
			// unreadable — both dependent deltas are invalidated and the
			// engine restarts from scratch.
			name: "corrupt-base-full",
			plan: rt.PlanOf(rt.CorruptCheckpoint(1), rt.Crash(deltaCrash)),
			check: func(t *testing.T, r bsp.Recovery) {
				if r.CorruptedCheckpoints != 1 || r.InvalidatedCheckpoints != 2 {
					t.Errorf("corrupt base full: corrupted=%d invalidated=%d, want 1/2", r.CorruptedCheckpoints, r.InvalidatedCheckpoints)
				}
				if r.Rollbacks == 0 {
					t.Errorf("corrupt base full: no rollback recorded: %+v", r)
				}
			},
		},
		{
			// Two crashes: the first reads a chain whose delta (frame 2)
			// is corrupt and falls back to full frame 1; the second reads
			// the frame saved right after that rollback. That save must be
			// full — a delta there would chain through the unreadable
			// frame 2, and the second recovery would invalidate it and
			// fall back further.
			name: "crash-after-rollback",
			plan: rt.PlanOf(rt.CorruptCheckpoint(2), rt.Crash(deltaCrash-1), rt.Crash(deltaCrash-1)),
			check: func(t *testing.T, r bsp.Recovery) {
				if r.Rollbacks != 2 || r.CorruptedCheckpoints != 1 || r.InvalidatedCheckpoints != 0 {
					t.Errorf("crash after rollback: rollbacks=%d corrupted=%d invalidated=%d, want 2/1/0", r.Rollbacks, r.CorruptedCheckpoints, r.InvalidatedCheckpoints)
				}
			},
		},
		{
			// A message batch lost in transit at superstep 1 forces a
			// rollback that restores through whatever chain is resident.
			name: "drop-lane-mid-chain",
			plan: rt.PlanOf(rt.DropLane(1, 0, 0)),
			check: func(t *testing.T, r bsp.Recovery) {
				if r.DroppedLanes == 0 || r.Rollbacks == 0 {
					t.Errorf("dropped lane under delta cadence: dropped=%d rollbacks=%d, want both > 0", r.DroppedLanes, r.Rollbacks)
				}
			},
		},
	}
}

// runDeltaDifferential drives each cell through the delta fault matrix.
// The fault-free full-snapshot run is the baseline (its agreement with
// the sequential oracle is asserted by differential_test.go); the
// fault-free delta run and every faulted delta run must match it
// byte for byte.
func runDeltaDifferential(t *testing.T, cells []deltaCell) {
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			base, _, err := cell.run(0, 0, nil)
			if err != nil {
				t.Fatalf("fault-free full run: %v", err)
			}

			t.Run("fault-free-delta", func(t *testing.T) {
				got, st, err := cell.run(deltaCK, deltaFull, nil)
				if err != nil {
					t.Fatalf("fault-free delta run: %v", err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("delta cadence changed fault-free output\nrecovery: %+v", st.Recovery)
				}
				r := st.Recovery
				if r.Faulted() {
					t.Fatalf("fault-free delta run reports recovery activity: %+v", r)
				}
				if r.DeltaCheckpointsSaved == 0 {
					t.Fatalf("delta cadence saved no delta frames: %+v", r)
				}
				if r.CheckpointBytesFull == 0 || r.CheckpointBytesDelta == 0 {
					t.Fatalf("checkpoint byte accounting empty: full=%d delta=%d", r.CheckpointBytesFull, r.CheckpointBytesDelta)
				}
			})

			// FullSnapshotEvery 0 and 1 are the same degenerate cadence:
			// every frame full, and the same recovery under a crash.
			t.Run("all-full-cadence", func(t *testing.T) {
				var recs [2]bsp.Recovery
				for i, fullEvery := range []int{0, 1} {
					got, st, err := cell.run(deltaCK, fullEvery, rt.PlanOf(rt.Crash(deltaCrash)))
					if err != nil {
						t.Fatalf("full-every %d: %v", fullEvery, err)
					}
					if !reflect.DeepEqual(got, base) {
						t.Fatalf("full-every %d output differs from fault-free run", fullEvery)
					}
					if st.Recovery.DeltaCheckpointsSaved != 0 {
						t.Fatalf("full-every %d saved %d delta frames", fullEvery, st.Recovery.DeltaCheckpointsSaved)
					}
					recs[i] = st.Recovery
				}
				if !reflect.DeepEqual(recs[0], recs[1]) {
					t.Fatalf("full-every 0 and 1 recover differently:\n0: %+v\n1: %+v", recs[0], recs[1])
				}
			})

			for _, fc := range deltaCases() {
				t.Run(fc.name, func(t *testing.T) {
					got, st, err := cell.run(deltaCK, deltaFull, fc.plan)
					if err != nil {
						t.Fatalf("faulted run: %v", err)
					}
					if !reflect.DeepEqual(got, base) {
						t.Fatalf("faulted output differs from fault-free run\nrecovery: %+v", st.Recovery)
					}
					fc.check(t, st.Recovery)
				})
			}

			// Seeded random plans under delta cadence: whatever mix a
			// seed generates — including corruption landing anywhere in
			// a chain — the output must not change.
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					got, st, err := cell.run(deltaCK, deltaFull, rt.NewFaultPlan(seed))
					if err != nil {
						t.Fatalf("seeded run: %v", err)
					}
					if !reflect.DeepEqual(got, base) {
						t.Fatalf("seed %d output differs from fault-free run\nrecovery: %+v", seed, st.Recovery)
					}
				})
			}
		})
	}
}

func TestDeltaDifferentialConnectedComponents(t *testing.T) {
	g := graph.Grid(12, 12) // diameter 22: every chain position is exercised
	var cells []deltaCell
	for _, p := range []struct {
		name string
		part pregel.Partitioner
	}{{"hash", nil}, {"range", pregel.PartitionRange}} {
		for _, w := range []int{1, 3} {
			part, w := p.part, w
			cells = append(cells, deltaCell{
				name: fmt.Sprintf("pregel/%s/w%d", p.name, w),
				run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
					res, err := HashMinCC(g, Config{Workers: w, Partition: part, CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan})
					if err != nil {
						return nil, nil, err
					}
					return res.Color, res.Stats, nil
				},
			})
		}
	}
	for _, w := range []int{1, 3} {
		w := w
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("gas/w%d", w),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				labels, res, err := gas.ConnectedComponents(g, gas.Config{Workers: w, CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan})
				if err != nil {
					return nil, nil, err
				}
				return labels, res.Stats, nil
			},
		})
	}
	cells = append(cells, deltaCell{
		name: "async",
		run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
			labels, res, err := async.ConnectedComponents(g, async.Config{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan})
			if err != nil {
				return nil, nil, err
			}
			return labels, res.Stats, nil
		},
	})
	for _, b := range []int{2, 3} {
		b := b
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("blockcentric/b%d", b),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := blockcentric.ConnectedComponents(g, blockcentric.Config{Workers: b, CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan})
				if err != nil {
					return nil, nil, err
				}
				return res.Color, res.Stats, nil
			},
		})
	}
	runDeltaDifferential(t, cells)
}

func TestDeltaDifferentialSSSP(t *testing.T) {
	g := graph.Grid(12, 12)
	graph.RandomWeights(g, 3)
	const src = 0
	var cells []deltaCell
	for _, w := range []int{1, 3} {
		w := w
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("pregel/w%d", w),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := SSSP(g, src, Config{Workers: w, CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan})
				if err != nil {
					return nil, nil, err
				}
				return res.Dist, res.Stats, nil
			},
		})
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("gas/w%d", w),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				dist, res, err := gas.SSSP(g, src, gas.Config{Workers: w, CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan})
				if err != nil {
					return nil, nil, err
				}
				return dist, res.Stats, nil
			},
		})
	}
	cells = append(cells, deltaCell{
		name: "async",
		run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
			dist, res, err := async.SSSP(g, src, async.Config{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan})
			if err != nil {
				return nil, nil, err
			}
			return dist, res.Stats, nil
		},
	})
	for _, b := range []int{2, 3} {
		b := b
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("blockcentric/b%d", b),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := blockcentric.SSSP(g, src, blockcentric.Config{Workers: b, CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan})
				if err != nil {
					return nil, nil, err
				}
				return res.Dist, res.Stats, nil
			},
		})
	}
	runDeltaDifferential(t, cells)
}

func TestDeltaDifferentialPageRank(t *testing.T) {
	g := graph.RandomConnected(120, 360, 9)
	const alpha, k = 0.85, 20
	var cells []deltaCell
	for _, w := range []int{1, 3} {
		w := w
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("pregel/w%d", w),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := PageRank(g, alpha, k, Config{Workers: w, CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan})
				if err != nil {
					return nil, nil, err
				}
				return res.Ranks, res.Stats, nil
			},
		})
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("gas/w%d", w),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				// Push pinned for the same reason as differential_test.go:
				// the transit-fault events must find batches to drop.
				ranks, res, err := gas.PageRank(g, alpha, 1e-10, gas.Config{Workers: w, CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan, Mode: rt.DirectionPush})
				if err != nil {
					return nil, nil, err
				}
				return ranks, res.Stats, nil
			},
		})
	}
	cells = append(cells, deltaCell{
		name: "async",
		run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
			ranks, res, err := async.PageRank(g, alpha, 1e-10, async.Config{CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan})
			if err != nil {
				return nil, nil, err
			}
			return ranks, res.Stats, nil
		},
	})
	for _, b := range []int{2, 3} {
		b := b
		cells = append(cells, deltaCell{
			name: fmt.Sprintf("blockcentric/b%d", b),
			run: func(ck, fullEvery int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := blockcentric.PageRank(g, alpha, k, blockcentric.Config{Workers: b, CheckpointEvery: ck, FullSnapshotEvery: fullEvery, Faults: plan})
				if err != nil {
					return nil, nil, err
				}
				return res.Ranks, res.Stats, nil
			},
		})
	}
	runDeltaDifferential(t, cells)
}
