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
	"vcgraph/internal/seq"
)

// Packed-state differential suite: every algorithm with bit-packed
// vertex state (PackedState) must produce runs byte-identical to its
// dense-state run — same outputs AND same per-superstep cost records —
// across partitioners, direction modes, and fault plans, on both flat
// (int32) and varint-delta-packed CSR snapshots. Byte-packing state or
// edges is a representation change only; any observable difference is
// a bug. Packed state is a pregel-program feature; the other engines'
// CC is held to the packed pregel labels over the same fault matrix.

// packedCell holds a run to a fault-free baseline under one engine ×
// configuration: on pregel the baseline is the dense-state run and the
// run is its packed-state counterpart.
type packedCell struct {
	name string
	// crossEngine marks cells whose run is another engine's CC held to
	// the packed pregel labels, where only the values can agree.
	crossEngine bool
	// noLanes marks cells that move no message batches over lanes (the
	// GAS pull path gathers neighbor state directly), where lane fault
	// events can never fire: output identity is still asserted but the
	// recovery counters are not.
	noLanes bool
	base    func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error)
	run     func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error)
}

// runPackedDifferential holds each cell's run to its baseline:
// identical values (and, unless crossEngine, superstep records)
// fault-free, and identical values again under every fault case and
// seeded plan.
func runPackedDifferential(t *testing.T, cells []packedCell) {
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			base, bstats, err := cell.base(0, nil)
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			got, rstats, err := cell.run(0, nil)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("values differ from the baseline")
			}
			if !cell.crossEngine {
				if bs, rs := bstats.Supersteps, rstats.Supersteps; !reflect.DeepEqual(stepCounts(bs), stepCounts(rs)) {
					t.Fatalf("superstep records differ from the baseline:\nbase: %+v\nrun:  %+v", bs, rs)
				}
				if bstats.MaxStatePerDeg != rstats.MaxStatePerDeg {
					t.Fatalf("state balance differs: base %v, run %v", bstats.MaxStatePerDeg, rstats.MaxStatePerDeg)
				}
			}

			for _, fc := range faultCases() {
				fc := fc
				t.Run(fc.name, func(t *testing.T) {
					got, st, err := cell.run(fc.ck, fc.plan)
					if err != nil {
						t.Fatalf("faulted run: %v", err)
					}
					if !reflect.DeepEqual(got, base) {
						t.Fatalf("faulted output differs from the baseline\nrecovery: %+v", st.Recovery)
					}
					if cell.noLanes && (fc.name == "drop-lane" || fc.name == "dup-lane") {
						return
					}
					fc.check(t, st.Recovery)
				})
			}
			for seed := int64(1); seed <= 2; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					got, st, err := cell.run(2, rt.NewFaultPlan(seed))
					if err != nil {
						t.Fatalf("seeded run: %v", err)
					}
					if !reflect.DeepEqual(got, base) {
						t.Fatalf("seed %d output differs from the baseline\nrecovery: %+v", seed, st.Recovery)
					}
				})
			}
		})
	}
}

// diffGraphs returns the two snapshot encodings every packed-state
// cell matrix runs over: the flat int32 CSR and the varint-delta
// packed one, built from identical adjacency.
func diffGraphs(build func() *graph.Graph) []struct {
	name string
	g    *graph.Graph
} {
	flat := build()
	packed := build()
	packed.Encoding = graph.EncodePacked
	return []struct {
		name string
		g    *graph.Graph
	}{{"int32", flat}, {"vdelta", packed}}
}

func TestPackedStateCCDifferential(t *testing.T) {
	for _, enc := range diffGraphs(func() *graph.Graph { return graph.Grid(12, 12) }) {
		g := enc.g
		var cells []packedCell

		ccCell := func(name string, cfg Config) packedCell {
			return packedCell{
				name: name,
				base: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
					c := cfg
					c.CheckpointEvery, c.Faults = ck, plan
					res, err := HashMinCC(g, c)
					if err != nil {
						return nil, nil, err
					}
					return res.Color, res.Stats, nil
				},
				run: func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
					c := cfg
					c.CheckpointEvery, c.Faults, c.PackedState = ck, plan, true
					res, err := HashMinCC(g, c)
					if err != nil {
						return nil, nil, err
					}
					return res.Color, res.Stats, nil
				},
			}
		}
		for _, p := range []struct {
			name string
			part pregel.Partitioner
		}{{"hash", nil}, {"range", pregel.PartitionRange}} {
			for _, w := range []int{1, 3} {
				cells = append(cells, ccCell(fmt.Sprintf("pregel/%s/w%d", p.name, w), Config{Workers: w, Partition: p.part}))
			}
		}
		cells = append(cells,
			ccCell("pregel/push", Config{Workers: 3, Mode: rt.DirectionPush}),
			ccCell("pregel/pull", Config{Workers: 3, Mode: rt.DirectionPull}),
			ccCell("pregel/nocombiner", Config{Workers: 3, NoCombiner: true}),
			ccCell("pregel/fcs", Config{Workers: 3, FCS: 40}),
		)

		// The other engines keep their labels in the value array; their
		// CC must reach the packed pregel labels under every fault plan.
		packedLabels := ccCell("", Config{Workers: 3}).run
		engineCC := func(name string, noLanes bool, run func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error)) packedCell {
			return packedCell{name: name, noLanes: noLanes, crossEngine: true, base: packedLabels, run: run}
		}
		gasCell := func(name string, cfg gas.Config) packedCell {
			return engineCC(name, cfg.Mode == rt.DirectionPull, func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				c := cfg
				c.CheckpointEvery, c.Faults = ck, plan
				labels, res, err := gas.ConnectedComponents(g, c)
				if err != nil {
					return nil, nil, err
				}
				return labels, res.Stats, nil
			})
		}
		for _, w := range []int{1, 3} {
			cells = append(cells, gasCell(fmt.Sprintf("gas/w%d", w), gas.Config{Workers: w}))
		}
		cells = append(cells,
			gasCell("gas/push", gas.Config{Workers: 3, Mode: rt.DirectionPush}),
			gasCell("gas/pull", gas.Config{Workers: 3, Mode: rt.DirectionPull}),
			engineCC("async", false, func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				labels, res, err := async.ConnectedComponents(g, async.Config{CheckpointEvery: ck, Faults: plan})
				if err != nil {
					return nil, nil, err
				}
				return labels, res.Stats, nil
			}),
		)
		for _, b := range []int{2, 3} {
			b := b
			cells = append(cells, engineCC(fmt.Sprintf("blockcentric/b%d", b), false, func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				res, err := blockcentric.ConnectedComponents(g, blockcentric.Config{Workers: b, CheckpointEvery: ck, Faults: plan})
				if err != nil {
					return nil, nil, err
				}
				return res.Color, res.Stats, nil
			}))
		}

		t.Run(enc.name, func(t *testing.T) { runPackedDifferential(t, cells) })
	}
}

func TestPackedStateKCoreDifferential(t *testing.T) {
	// The multigraph doubles every edge in the grid's top half, so
	// parallel edges raise the coreness there.
	multi := graph.Grid(12, 12)
	for u := 0; u < 72; u++ {
		for _, e := range append([]graph.Edge(nil), multi.Out[u]...) {
			if graph.VertexID(u) < e.Dst {
				multi.AddEdge(graph.VertexID(u), e.Dst)
			}
		}
	}
	for _, gr := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(12, 12)},
		{"powerlaw", graph.PreferentialAttachment(200, 3, 7)},
		{"multigraph", multi},
	} {
		want := seq.KCore(gr.g, &seq.Ops{})
		for _, encName := range []string{"int32", "vdelta"} {
			g := gr.g
			if encName == "vdelta" {
				g = rebuildWithEncoding(gr.g)
			}
			kcore := func(packed bool) func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
				return func(ck int, plan *rt.FaultPlan) (any, *bsp.Stats, error) {
					res, err := KCore(g, Config{Workers: 3, CheckpointEvery: ck, Faults: plan, PackedState: packed})
					if err != nil {
						return nil, nil, err
					}
					if !reflect.DeepEqual(res.Core, want) {
						return nil, nil, fmt.Errorf("coreness differs from seq.KCore (packed %v)", packed)
					}
					return res.Core, res.Stats, nil
				}
			}
			runPackedDifferential(t, []packedCell{{name: gr.name + "/" + encName, base: kcore(false), run: kcore(true)}})
		}
	}
}

// rebuildWithEncoding deep-copies a graph's adjacency into a new graph
// whose snapshots use the varint-delta packed encoding.
func rebuildWithEncoding(src *graph.Graph) *graph.Graph {
	c := graph.BuildCSR(src)
	g := graph.New(c.N(), c.Directed)
	g.Encoding = graph.EncodePacked
	for v := 0; v < c.N(); v++ {
		ws := c.OutWeights(graph.VertexID(v))
		var s graph.Scratch
		for i, u := range c.OutSpan(graph.VertexID(v), &s) {
			if !c.Directed && u < graph.VertexID(v) {
				continue // undirected edges appear in both adjacencies
			}
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			g.AddWeightedEdge(graph.VertexID(v), u, w)
		}
	}
	if c.Directed {
		g.EnsureIn()
	}
	return g
}

// TestMutationScriptPackedBase drives one mutation script through a
// flat graph and its packed-encoding twin in lockstep (scriptRig
// mirror): at every query point the incremental algorithms — whose
// delta overlays enumerate base-then-adds over a *compressed* base on
// the twin, re-based mid-script by RebuildEvery — and a from-scratch
// engine run with packed vertex state must be byte-identical to the
// int32 twin.
func TestMutationScriptPackedBase(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rig := newScriptRig(t, 24, 48, seed)
			twin := rig.g.Clone()
			twin.Encoding = graph.EncodePacked
			twin.RebuildEvery = 9 // force mid-script re-basing onto fresh packed bases
			rig.mirror = twin

			flat, packed := &incStates{}, &incStates{}
			check := func() {
				t.Helper()
				ccF, _, err := incRow(rig.g, "cc", Args{}, &flat.cc, Config{})
				if err != nil {
					t.Fatalf("flat incremental CC: %v", err)
				}
				ccP, _, err := incRow(twin, "cc", Args{}, &packed.cc, Config{})
				if err != nil {
					t.Fatalf("packed incremental CC: %v", err)
				}
				if flat.cc.Cold != packed.cc.Cold || !reflect.DeepEqual(ccF, ccP) {
					t.Fatalf("incremental CC over packed base differs (cold %v/%v)", flat.cc.Cold, packed.cc.Cold)
				}
				ssF, _, err := incRow(rig.g, "sssp", scriptSSSP, &flat.sssp, Config{})
				if err != nil {
					t.Fatalf("flat incremental SSSP: %v", err)
				}
				ssP, _, err := incRow(twin, "sssp", scriptSSSP, &packed.sssp, Config{})
				if err != nil {
					t.Fatalf("packed incremental SSSP: %v", err)
				}
				if !reflect.DeepEqual(ssF, ssP) {
					t.Fatal("incremental SSSP over packed base differs")
				}

				// From-scratch engine run combining every axis: flat
				// graph + dense state vs compressed mutated base +
				// bit-packed state.
				dres, err := HashMinCC(rig.g, Config{Workers: 3})
				if err != nil {
					t.Fatalf("dense HashMinCC: %v", err)
				}
				pres, err := HashMinCC(twin, Config{Workers: 3, PackedState: true})
				if err != nil {
					t.Fatalf("packed HashMinCC: %v", err)
				}
				if !reflect.DeepEqual(dres.Color, pres.Color) {
					t.Fatal("packed-state HashMinCC over compressed mutated base differs")
				}
				if !reflect.DeepEqual(stepCounts(dres.Stats.Supersteps), stepCounts(pres.Stats.Supersteps)) {
					t.Fatal("packed-state HashMinCC superstep records differ over compressed mutated base")
				}
			}

			check()
			for step := 1; step <= 12; step++ {
				rig.step(1 + rig.rng.Intn(4))
				if step%3 == 0 {
					check()
				}
			}
		})
	}
}

func TestPackedStateColoringDifferential(t *testing.T) {
	for _, gr := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(10, 10)},
		{"powerlaw", graph.PreferentialAttachment(150, 3, 3)},
	} {
		for _, seed := range []int64{1, 5} {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed%d", gr.name, seed), func(t *testing.T) {
				dense, err := ColoringMIS(gr.g, Config{Workers: 3, Seed: seed})
				if err != nil {
					t.Fatalf("dense: %v", err)
				}
				packed, err := ColoringMIS(gr.g, Config{Workers: 3, Seed: seed, PackedState: true})
				if err != nil {
					t.Fatalf("packed: %v", err)
				}
				if !reflect.DeepEqual(packed.Colors, dense.Colors) || packed.K != dense.K {
					t.Fatalf("packed coloring differs: K=%d vs %d", packed.K, dense.K)
				}
				if !reflect.DeepEqual(stepCounts(dense.Stats.Supersteps), stepCounts(packed.Stats.Supersteps)) {
					t.Fatalf("packed coloring superstep records differ from dense")
				}

				// Both programs checkpoint their master counters (and
				// the packed one its stores), so both must survive the
				// fault matrix against the fault-free output.
				for _, fc := range faultCases() {
					fc := fc
					t.Run(fc.name, func(t *testing.T) {
						for _, packed := range []bool{false, true} {
							got, err := ColoringMIS(gr.g, Config{Workers: 3, Seed: seed, PackedState: packed,
								CheckpointEvery: fc.ck, Faults: fc.plan})
							if err != nil {
								t.Fatalf("faulted (packed %v): %v", packed, err)
							}
							if !reflect.DeepEqual(got.Colors, dense.Colors) || got.K != dense.K {
								t.Fatalf("faulted coloring (packed %v) differs\nrecovery: %+v", packed, got.Stats.Recovery)
							}
							fc.check(t, got.Stats.Recovery)
						}
					})
				}
			})
		}
	}
}
