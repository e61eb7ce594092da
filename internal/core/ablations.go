package core

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"vcgraph/internal/async"
	"vcgraph/internal/blockcentric"
	"vcgraph/internal/bsp"
	"vcgraph/internal/gas"
	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	"vcgraph/internal/pregel"
	"vcgraph/internal/runtime"
	"vcgraph/internal/seq"
	"vcgraph/internal/vc"
)

// Ablations for the design choices the paper discusses: message
// combiners (one of the "algorithmic and system-specific optimization
// techniques" of §1), the bandwidth parameter g (footnote 1: "for
// higher values of g, the time-processor product would be even
// higher"), the number of processors P, and the §3.8 subgraph-centric
// communication overhead.

// CombinerAblation runs Hash-Min with and without its min-combiner on
// a dense random graph and reports the network volume the combiner
// removes.
func CombinerAblation(n, m int, cfg vc.Config) (string, error) {
	g := graph.Random(n, m, 33)
	with := cfg
	without := cfg
	without.NoCombiner = true
	// Pin push: this table prices what sender-side combining saves on
	// the wire, and the pull path (which a combiner also unlocks) would
	// zero the wire columns entirely. DirectionAblation measures that.
	with.Mode = runtime.DirectionPush
	without.Mode = runtime.DirectionPush
	a, err := vc.HashMinCC(g, with)
	if err != nil {
		return "", err
	}
	b, err := vc.HashMinCC(g, without)
	if err != nil {
		return "", err
	}
	for v := range a.Color {
		if a.Color[v] != b.Color[v] {
			return "", fmt.Errorf("combiner changed the result at vertex %d", v)
		}
	}
	var out strings.Builder
	fmt.Fprintf(&out, "Combiner ablation — Hash-Min on random n=%d m=%d\n", g.N(), g.M())
	fmt.Fprintf(&out, "%-14s %12s %18s %10s\n", "", "sent (raw)", "delivered (net)", "supersteps")
	fmt.Fprintf(&out, "%-14s %12d %18d %10d\n", "with combiner", a.Stats.TotalMessages, a.Stats.InboxDeliveries, a.Stats.NumSupersteps())
	fmt.Fprintf(&out, "%-14s %12d %18d %10d\n", "without", b.Stats.TotalMessages, b.Stats.InboxDeliveries, b.Stats.NumSupersteps())
	save := 1 - float64(a.Stats.InboxDeliveries)/float64(b.Stats.InboxDeliveries)
	fmt.Fprintf(&out, "combining removes %.0f%% of delivered message volume; results identical\n", save*100)
	return out.String(), nil
}

// DirectionAblation measures direction-optimizing execution: the same
// combiner-bearing algorithms under forced push, forced pull, and the
// auto heuristic (pull when the frontier exceeds n/20). Results must be
// byte-identical across modes — the pull gather replays push's fold
// order exactly — while the wire columns show what dense supersteps
// stop paying: pulled broadcasts are never materialized as messages, so
// h collapses to the boundary traffic.
func DirectionAblation(cfg vc.Config) (string, error) {
	pa := graph.PreferentialAttachment(5000, 3, 99)
	ws := graph.WattsStrogatz(4000, 2, 0.1, 99)
	modes := []runtime.DirectionMode{runtime.DirectionPush, runtime.DirectionAuto, runtime.DirectionPull}
	var out strings.Builder
	fmt.Fprintf(&out, "Direction ablation — push vs pull vs auto (threshold n/20)\n")
	fmt.Fprintf(&out, "%-22s %-6s %12s %8s %14s %14s\n", "algorithm", "mode", "supersteps", "pulled", "wire messages", "P·T")
	var prBase []float64
	for _, mode := range modes {
		c := cfg
		c.Mode = mode
		res, err := vc.PageRank(pa, 0.85, 10, c)
		if err != nil {
			return "", err
		}
		if prBase == nil {
			prBase = res.Ranks
		} else {
			for v := range prBase {
				if prBase[v] != res.Ranks[v] {
					return "", fmt.Errorf("direction mode %v changed PageRank at vertex %d", mode, v)
				}
			}
		}
		fmt.Fprintf(&out, "%-22s %-6s %12d %8d %14d %14.0f\n", "PageRank(K=10), PA",
			mode, res.Stats.NumSupersteps(), res.Stats.PulledSupersteps(),
			res.Stats.TotalMessages, res.Stats.MeasuredTPP())
	}
	var hmBase []graph.VertexID
	for _, mode := range modes {
		c := cfg
		c.Mode = mode
		res, err := vc.HashMinCC(ws, c)
		if err != nil {
			return "", err
		}
		if hmBase == nil {
			hmBase = res.Color
		} else {
			for v := range hmBase {
				if hmBase[v] != res.Color[v] {
					return "", fmt.Errorf("direction mode %v changed Hash-Min at vertex %d", mode, v)
				}
			}
		}
		fmt.Fprintf(&out, "%-22s %-6s %12d %8d %14d %14.0f\n", "Hash-Min, smallworld",
			mode, res.Stats.NumSupersteps(), res.Stats.PulledSupersteps(),
			res.Stats.TotalMessages, res.Stats.MeasuredTPP())
	}
	fmt.Fprintf(&out, "byte-identical results in every mode; pull erases the dense supersteps' wire\n")
	fmt.Fprintf(&out, "volume and auto pays it only while the frontier stays sparse\n")
	return out.String(), nil
}

// BandwidthSweep re-prices one algorithm's measured superstep loads
// under increasing bandwidth parameter g, reproducing footnote 1: the
// time-processor product of message-bound algorithms degrades with g
// while compute-bound ones barely move.
func BandwidthSweep(cfg vc.Config) (string, error) {
	// Message-bound: diameter flooding. Compute-bound-ish: PageRank.
	gd := graph.RandomConnected(400, 1200, 44)
	diam, err := vc.Diameter(gd, cfg)
	if err != nil {
		return "", err
	}
	gp := graph.PreferentialAttachment(4000, 3, 44)
	pr, err := vc.PageRank(gp, 0.85, 30, cfg)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	fmt.Fprintf(&out, "Bandwidth sweep — time-processor product P·T under rising g (L=1)\n")
	fmt.Fprintf(&out, "%-6s %18s %18s\n", "g", "diameter (msg-bound)", "pagerank")
	base1, base2 := 0.0, 0.0
	for _, gg := range []float64{1, 2, 4, 8, 16} {
		m := bsp.CostModel{G: gg, L: 1}
		p1 := m.TimeProcessor(diam.Stats)
		p2 := m.TimeProcessor(pr.Stats)
		if gg == 1 {
			base1, base2 = p1, p2
		}
		fmt.Fprintf(&out, "%-6.0f %12.0f (%4.1fx) %12.0f (%4.1fx)\n", gg, p1, p1/base1, p2, p2/base2)
	}
	fmt.Fprintf(&out, "the paper's footnote 1: higher g inflates message-heavy algorithms' products\n")
	return out.String(), nil
}

// WorkerSweep measures PageRank's time-processor product and wall time
// across processor counts: P·T grows with P whenever per-superstep
// load is imbalanced, while wall time only improves while the work
// parallelizes.
func WorkerSweep() (string, error) {
	g := graph.PreferentialAttachment(20000, 3, 55)
	var out strings.Builder
	fmt.Fprintf(&out, "Worker sweep — PageRank (K=10) on preferential-attachment n=%d m=%d\n", g.N(), g.M())
	fmt.Fprintf(&out, "%-8s %14s %12s\n", "workers", "P·T", "wall time")
	for _, w := range []int{1, 2, 4, 8} {
		start := time.Now()
		res, err := vc.PageRank(g, 0.85, 10, vc.Config{Workers: w})
		if err != nil {
			return "", err
		}
		el := time.Since(start)
		fmt.Fprintf(&out, "%-8d %14.0f %12s\n", w, res.Stats.MeasuredTPP(), el.Round(time.Millisecond))
	}
	fmt.Fprintf(&out, "P·T rises with P (skewed degrees imbalance the per-worker max) while wall time\n")
	fmt.Fprintf(&out, "barely moves: synchronization overhead offsets the parallelism at this scale —\n")
	fmt.Fprintf(&out, "the McSherry observation the paper's introduction builds on\n")
	return out.String(), nil
}

// SubgraphOverhead measures §3.8's claim: triangle counting needs each
// vertex to see its neighbors' adjacency, so the vertex-centric
// message volume grows like Σ d(v)² while the sequential intersection
// cost does not.
func SubgraphOverhead(cfg vc.Config) (string, error) {
	var out strings.Builder
	fmt.Fprintf(&out, "Subgraph-centric overhead (§3.8) — triangle counting: what the vertex-centric\n")
	fmt.Fprintf(&out, "model must SHIP (messages carrying neighbor lists) vs what sequential code scans in place\n")
	fmt.Fprintf(&out, "%-22s %14s %10s %12s %12s\n", "graph", "vc messages", "msgs/m", "recv/deg", "seq ops")
	for _, sc := range []struct {
		n, m int
	}{{200, 1500}, {400, 6000}, {800, 24000}} {
		g := graph.Random(sc.n, sc.m, 66)
		res, err := vc.Triangles(g, cfg)
		if err != nil {
			return "", err
		}
		var ops seq.Ops
		seq.Triangles(g, &ops)
		fmt.Fprintf(&out, "n=%-6d m=%-10d %14d %10.1f %12.1f %12d\n",
			g.N(), g.M(), res.Stats.TotalMessages,
			float64(res.Stats.TotalMessages)/float64(g.M()),
			res.Stats.MaxRecvPerDeg, ops.N)
	}
	fmt.Fprintf(&out, "messages-per-edge grows with density (Θ(Σ d(v)²) shipped overall) and per-vertex\n")
	fmt.Fprintf(&out, "receive volume exceeds the O(d(v)) BPPA budget — the §3.8 communication overhead\n")
	return out.String(), nil
}

// PartitionAblation compares the four partitioning strategies on a
// degree-skewed graph: results are identical, but the measured
// superstep cost max(w, g·h, L) tracks the load imbalance each
// strategy leaves behind (§1's "graph partitioning" optimization).
func PartitionAblation(cfg vc.Config) (string, error) {
	g := graph.PreferentialAttachment(10000, 3, 77)
	var out strings.Builder
	fmt.Fprintf(&out, "Partitioning ablation — PageRank(K=10) on preferential-attachment n=%d m=%d, %d workers\n",
		g.N(), g.M(), 4)
	fmt.Fprintf(&out, "%-18s %14s %16s\n", "strategy", "P·T", "top rank vertex")
	strategies := []struct {
		name string
		p    pregel.Partitioner
	}{
		{"runs (default)", pregel.PartitionRuns},
		{"hash", pregel.PartitionHash},
		{"range", pregel.PartitionRange},
		{"degree-balanced", pregel.PartitionDegreeBalanced},
	}
	var topRank []float64
	for _, s := range strategies {
		c := cfg
		c.Workers = 4
		c.Partition = s.p
		res, err := vc.PageRank(g, 0.85, 10, c)
		if err != nil {
			return "", err
		}
		best, bestV := 0.0, 0
		for v, r := range res.Ranks {
			if r > best {
				best, bestV = r, v
			}
		}
		if topRank == nil {
			topRank = res.Ranks
		} else {
			for v := range topRank {
				// Equal up to float summation order (inbox order differs
				// across partitions).
				if diff := topRank[v] - res.Ranks[v]; diff > 1e-12 || diff < -1e-12 {
					return "", fmt.Errorf("partitioning changed PageRank at vertex %d", v)
				}
			}
		}
		fmt.Fprintf(&out, "%-18s %14.0f %16d\n", s.name, res.Stats.MeasuredTPP(), bestV)
	}
	fmt.Fprintf(&out, "identical results; range partitioning piles the low-ID hubs onto one worker\n")
	fmt.Fprintf(&out, "and pays for it in the per-superstep maxima\n")
	return out.String(), nil
}

// FCSAblation measures the "finishing computations serially"
// optimization of Salihoglu & Widom on a Hash-Min run with a long,
// thin active tail: a path over permuted IDs where only the global
// minimum's wavefront stays active after the first few supersteps.
func FCSAblation(cfg vc.Config) (string, error) {
	g := graph.PermutedPath(4096, 5)
	plain := cfg
	fcs := cfg
	fcs.FCS = 64
	a, err := vc.HashMinCC(g, plain)
	if err != nil {
		return "", err
	}
	b, err := vc.HashMinCC(g, fcs)
	if err != nil {
		return "", err
	}
	for v := range a.Color {
		if a.Color[v] != b.Color[v] {
			return "", fmt.Errorf("FCS changed the result at vertex %d", v)
		}
	}
	var out strings.Builder
	fmt.Fprintf(&out, "FCS ablation — Hash-Min on a permuted-ID path (n=%d), threshold 64\n", g.N())
	fmt.Fprintf(&out, "%-12s %12s %14s %14s\n", "", "supersteps", "messages", "P·T")
	fmt.Fprintf(&out, "%-12s %12d %14d %14.0f\n", "plain", a.Stats.NumSupersteps(), a.Stats.TotalMessages, a.Stats.MeasuredTPP())
	fmt.Fprintf(&out, "%-12s %12d %14d %14.0f\n", "with FCS", b.Stats.NumSupersteps(), b.Stats.TotalMessages, b.Stats.MeasuredTPP())
	fmt.Fprintf(&out, "identical results; FCS collapses the long single-wavefront tail into one serial step\n")
	return out.String(), nil
}

// ParadigmComparison measures the paper's concluding point: one model
// does not fit all computations. Connected components on a
// high-diameter graph, in three paradigms — vertex-centric Hash-Min
// (Θ(δ) supersteps), vertex-centric S-V (Θ(log n) rounds at much
// higher constant cost), and block-centric min-label (Θ(B) supersteps,
// boundary-only messages).
func ParadigmComparison(cfg vc.Config) (string, error) {
	g := graph.Path(4096)
	var out strings.Builder
	fmt.Fprintf(&out, "Paradigm comparison — connected components on a path (n=%d, δ=n-1)\n", g.N())
	fmt.Fprintf(&out, "%-26s %12s %14s %14s\n", "paradigm", "supersteps", "messages", "P·T")

	hm, err := vc.HashMinCC(g, cfg)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&out, "%-26s %12d %14d %14.0f\n", "vertex-centric Hash-Min",
		hm.Stats.NumSupersteps(), hm.Stats.TotalMessages, hm.Stats.MeasuredTPP())

	sv, err := vc.SVCC(g, cfg)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&out, "%-26s %12d %14d %14.0f\n", "vertex-centric S-V",
		sv.Stats.NumSupersteps(), sv.Stats.TotalMessages, sv.Stats.MeasuredTPP())

	asyncLabels, asyncRes, err := async.ConnectedComponents(g, async.Config{})
	if err != nil {
		return "", err
	}
	for v := range hm.Color {
		if asyncLabels[v] != hm.Color[v] {
			return "", fmt.Errorf("async CC disagrees at vertex %d", v)
		}
	}
	fmt.Fprintf(&out, "%-26s %12s %14d %14d\n", "async (GraphLab-style)", "-", asyncRes.Updates, asyncRes.Updates)

	for _, blocks := range []int{4, 16} {
		bc, err := blockcentric.ConnectedComponents(g, blockcentric.Config{Workers: blocks})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "block-centric (B=%-3d)       %12d %14d %14.0f\n", blocks,
			bc.Stats.NumSupersteps(), bc.Stats.TotalMessages, bc.Stats.MeasuredTPP())
		for v := range hm.Color {
			if bc.Color[v] != hm.Color[v] {
				return "", fmt.Errorf("paradigms disagree at vertex %d", v)
			}
		}
	}
	fmt.Fprintf(&out, "identical results; asynchronous scheduling and the subgraph-centric view\n")
	fmt.Fprintf(&out, "both beat the synchronous vertex-centric model by orders of magnitude here —\n")
	fmt.Fprintf(&out, "the conclusion's case for supporting multiple paradigms in one system\n")
	return out.String(), nil
}

// ModelComparison runs PageRank-to-convergence in the synchronous
// vertex-centric model (push, every vertex active every superstep) and
// the gather-apply-scatter model (pull, delta-scheduled): same
// fixpoint, very different edge traffic — the §1 survey's reason the
// "more advanced vertex-centric models" exist.
func ModelComparison(cfg vc.Config) (string, error) {
	g := graph.PreferentialAttachment(20000, 3, 88)
	const eps = 1e-10
	prRes, iters, err := vc.PageRankConverge(g, 0.85, eps, cfg)
	if err != nil {
		return "", err
	}
	gasRanks, gasRes, err := gas.PageRank(g, 0.85, eps, gas.Config{Workers: 4})
	if err != nil {
		return "", err
	}
	for v := range gasRanks {
		if d := gasRanks[v] - prRes.Ranks[v]; d > 1e-6 || d < -1e-6 {
			return "", fmt.Errorf("models disagree at vertex %d", v)
		}
	}
	var out strings.Builder
	fmt.Fprintf(&out, "Model comparison — PageRank to convergence (eps=%g) on PA n=%d m=%d\n", eps, g.N(), g.M())
	fmt.Fprintf(&out, "%-26s %12s %16s\n", "model", "iterations", "edge work")
	fmt.Fprintf(&out, "%-26s %12d %16d\n", "Pregel (push, sync)", iters, prRes.Stats.TotalMessages)
	fmt.Fprintf(&out, "%-26s %12d %16d\n", "GAS (pull, delta-sched)", gasRes.Iterations, gasRes.Stats.TotalWork)
	fmt.Fprintf(&out, "same fixpoint; delta scheduling stops touching converged regions early\n")
	return out.String(), nil
}

// SuperstepSharingAblation measures the §1 "superstep sharing"
// optimization on multi-source betweenness: batching all sources into
// one engine run collapses Σ_s 2δ_s supersteps to max_s 2δ_s.
func SuperstepSharingAblation(cfg vc.Config) (string, error) {
	g := graph.Grid(24, 24)
	sources := make([]graph.VertexID, 12)
	for i := range sources {
		sources[i] = graph.VertexID(i * g.N() / len(sources))
	}
	per, err := vc.Betweenness(g, sources, cfg)
	if err != nil {
		return "", err
	}
	shared, err := vc.BetweennessShared(g, sources, cfg)
	if err != nil {
		return "", err
	}
	for v := range per.BC {
		if d := per.BC[v] - shared.BC[v]; d > 1e-6 || d < -1e-6 {
			return "", fmt.Errorf("superstep sharing changed bc at vertex %d", v)
		}
	}
	var out strings.Builder
	fmt.Fprintf(&out, "Superstep sharing — betweenness from %d sources on a 24x24 grid\n", len(sources))
	fmt.Fprintf(&out, "%-22s %12s %14s %14s\n", "", "supersteps", "messages", "P·T")
	fmt.Fprintf(&out, "%-22s %12d %14d %14.0f\n", "one run per source",
		per.Stats.NumSupersteps(), per.Stats.TotalMessages, per.Stats.MeasuredTPP())
	fmt.Fprintf(&out, "%-22s %12d %14d %14.0f\n", "shared supersteps",
		shared.Stats.NumSupersteps(), shared.Stats.TotalMessages, shared.Stats.MeasuredTPP())
	fmt.Fprintf(&out, "identical centralities; sharing trades K-fold vertex state for Σδ -> maxδ latency\n")
	return out.String(), nil
}

// Ablations runs every ablation in order.
// RecoveryCostSweep measures the classic fault-tolerance trade-off the
// paper's cost model prices: frequent checkpoints cost snapshot writes,
// sparse ones cost redone supersteps after a rollback. One crash is
// injected mid-run and the checkpoint interval swept; every recovered
// run must reproduce the fault-free result exactly.
func RecoveryCostSweep(cfg vc.Config) (string, error) {
	prGraph := graph.PreferentialAttachment(2000, 3, 8)
	ssspGraph := graph.Grid(40, 40)
	graph.RandomWeights(ssspGraph, 9)
	workloads := []struct {
		name string
		run  func(c vc.Config) (any, *bsp.Stats, error)
	}{
		{"PageRank, powerlaw n=2000", func(c vc.Config) (any, *bsp.Stats, error) {
			res, err := vc.PageRank(prGraph, 0.85, 30, c)
			if err != nil {
				return nil, nil, err
			}
			return res.Ranks, res.Stats, nil
		}},
		{"SSSP, weighted 40x40 grid", func(c vc.Config) (any, *bsp.Stats, error) {
			res, err := vc.SSSP(ssspGraph, 0, c)
			if err != nil {
				return nil, nil, err
			}
			return res.Dist, res.Stats, nil
		}},
	}
	const crashStep = 21
	var out strings.Builder
	fmt.Fprintf(&out, "Recovery cost — one crash at superstep %d, checkpoint interval swept\n", crashStep)
	for _, w := range workloads {
		clean, cleanStats, err := w.run(cfg)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "%s (%d supersteps fault-free)\n", w.name, cleanStats.NumSupersteps())
		fmt.Fprintf(&out, "  %-10s %12s %10s %18s\n", "interval", "checkpoints", "rollbacks", "redone supersteps")
		for _, k := range []int{1, 2, 4, 8, 16} {
			c := cfg
			c.CheckpointEvery = k
			c.Faults = runtime.PlanOf(runtime.Crash(crashStep))
			got, stats, err := w.run(c)
			if err != nil {
				return "", err
			}
			if !reflect.DeepEqual(got, clean) {
				return "", fmt.Errorf("recovery changed the %s result at interval %d", w.name, k)
			}
			rec := stats.Recovery
			fmt.Fprintf(&out, "  %-10d %12d %10d %18d\n", k, rec.CheckpointsSaved, rec.Rollbacks, rec.RedoneSupersteps)
		}
	}
	out.WriteString("results byte-identical to the fault-free run at every interval\n")
	return out.String(), nil
}

// CheckpointCompactionSweep prices the other axis of the checkpoint
// trade-off: with the interval pinned to the safest cadence (a frame
// every superstep), the full-snapshot cadence is swept instead — every
// save full (the legacy store) versus dirty-set delta chains with a
// full frame every Nth save. The workload is SSSP on a weighted grid,
// whose frontier collapses to a sparse wave, so full frames re-copy
// the whole distance array to record a few hundred relaxations. One
// crash lands mid-run so every row also proves rollback through a
// delta chain reproduces the fault-free result exactly.
func CheckpointCompactionSweep(cfg vc.Config) (string, error) {
	g := graph.Grid(60, 60)
	graph.RandomWeights(g, 9)
	run := func(c vc.Config) (any, *bsp.Stats, error) {
		res, err := vc.SSSP(g, 0, c)
		if err != nil {
			return nil, nil, err
		}
		return res.Dist, res.Stats, nil
	}
	clean, cleanStats, err := run(cfg)
	if err != nil {
		return "", err
	}
	const crashStep = 21
	var out strings.Builder
	fmt.Fprintf(&out, "Checkpoint compaction — SSSP, weighted 60x60 grid (%d supersteps), checkpoint every superstep, crash at %d, full-snapshot cadence swept\n",
		cleanStats.NumSupersteps(), crashStep)
	fmt.Fprintf(&out, "  %-12s %8s %8s %14s %14s %10s\n", "full-every", "fulls", "deltas", "bytes full", "bytes delta", "vs all-full")
	var allFull int64
	for _, n := range []int{0, 2, 4, 8, 16} {
		c := cfg
		c.CheckpointEvery = 1
		c.FullSnapshotEvery = n
		c.Faults = runtime.PlanOf(runtime.Crash(crashStep))
		got, stats, err := run(c)
		if err != nil {
			return "", err
		}
		if !reflect.DeepEqual(got, clean) {
			return "", fmt.Errorf("delta-chain recovery changed the SSSP result at full-snapshot cadence %d", n)
		}
		rec := stats.Recovery
		total := rec.CheckpointBytesFull + rec.CheckpointBytesDelta
		if n == 0 {
			allFull = total
		}
		fmt.Fprintf(&out, "  %-12d %8d %8d %14d %14d %9.2fx\n",
			n, rec.CheckpointsSaved-rec.DeltaCheckpointsSaved, rec.DeltaCheckpointsSaved,
			rec.CheckpointBytesFull, rec.CheckpointBytesDelta, float64(allFull)/float64(total))
	}
	out.WriteString("results byte-identical to the fault-free run at every cadence\n")
	return out.String(), nil
}

// PlannerAblation pits the adaptive plan layer against every fixed
// engine choice on workloads with opposing winners: regular structures
// where block-centric collapses propagation, and skewed structures
// where pregel with degree-balanced partitions wins. Fixed configs run
// through the same auto harness as a forced AutoConfig.Plan, so the
// only difference is who picked the plan. The acceptance bar (auto within
// 10% of the best fixed config everywhere, and at least 1.5x better
// than the worst on two or more workloads) is enforced, not just
// reported — drifting planner rules fail the ablation run.
func PlannerAblation(cfg vc.Config) (string, error) {
	type workload struct {
		name string
		g    *graph.Graph
		algo string
	}
	workloads := []workload{
		{"pagerank/powerlaw", graph.PreferentialAttachment(4000, 3, 31), "pagerank"},
		{"cc/path", graph.Path(4096), "cc"},
		{"cc/caterpillar", graph.CaterpillarTree(4096), "cc"},
		{"cc/powerlaw", graph.PreferentialAttachment(4000, 3, 32), "cc"},
		{"sssp/grid", weighted(graph.Grid(48, 48), 33), "sssp"},
		{"sssp/caterpillar", weighted(graph.CaterpillarTree(4096), 35), "sssp"},
		{"sssp/powerlaw", weighted(graph.PreferentialAttachment(4000, 3, 34), 34), "sssp"},
	}
	fixed := []plan.Plan{
		{Engine: plan.EnginePregel, Partition: plan.PartitionHash, Mode: "auto"},
		{Engine: plan.EngineGAS, Partition: plan.PartitionHash, Mode: "auto"},
		{Engine: plan.EngineBlockcentric, Partition: plan.PartitionRange, Mode: "auto"},
	}
	var out strings.Builder
	fmt.Fprintf(&out, "Planner ablation — adaptive plan layer vs every fixed engine (P·T, lower is better)\n")
	fmt.Fprintf(&out, "%-18s %14s %14s %14s %14s  %s\n",
		"workload", "pregel", "gas", "blockcentric", "auto", "auto picked")
	beatWorst := 0
	for _, w := range workloads {
		runPlan := func(forced *plan.Plan) (float64, *vc.AutoResult, error) {
			args := vc.Args{Alpha: 0.85, K: 20}
			_, ar, err := vc.PrepareAuto(w.g, w.algo, args, vc.AutoConfig{Config: cfg, Plan: forced})()
			if err != nil {
				return 0, nil, err
			}
			return ar.Stats.MeasuredTPP(), ar, nil
		}
		tpps := make([]float64, len(fixed))
		for i, f := range fixed {
			tpp, _, err := runPlan(&f)
			if err != nil {
				return "", fmt.Errorf("%s on fixed %s: %w", w.name, f.Engine, err)
			}
			tpps[i] = tpp
		}
		autoTPP, ar, err := runPlan(nil)
		if err != nil {
			return "", fmt.Errorf("%s on auto: %w", w.name, err)
		}
		best, worst := tpps[0], tpps[0]
		for _, t := range tpps[1:] {
			if t < best {
				best = t
			}
			if t > worst {
				worst = t
			}
		}
		fmt.Fprintf(&out, "%-18s %14.0f %14.0f %14.0f %14.0f  %s\n",
			w.name, tpps[0], tpps[1], tpps[2], autoTPP, ar.Decisions[0].Plan.Engine)
		if autoTPP > 1.10*best {
			return "", fmt.Errorf("planner ablation: %s: auto P·T %.0f is more than 10%% over best fixed %.0f",
				w.name, autoTPP, best)
		}
		if 1.5*autoTPP <= worst {
			beatWorst++
		}
	}
	if beatWorst < 2 {
		return "", fmt.Errorf("planner ablation: auto beat the worst fixed config by >=1.5x on only %d workloads, want >= 2", beatWorst)
	}
	fmt.Fprintf(&out, "auto within 10%% of the best fixed config on every workload; >=1.5x over the worst on %d of %d\n",
		beatWorst, len(workloads))
	return out.String(), nil
}

// weighted assigns seeded random weights (for SSSP workloads).
func weighted(g *graph.Graph, seed int64) *graph.Graph {
	graph.RandomWeights(g, seed)
	return g
}

func Ablations(cfg vc.Config) ([]string, error) {
	var outs []string
	s, err := CombinerAblation(2000, 20000, cfg)
	if err != nil {
		return outs, err
	}
	outs = append(outs, s)
	if s, err = DirectionAblation(cfg); err != nil {
		return outs, err
	}
	outs = append(outs, s)
	if s, err = BandwidthSweep(cfg); err != nil {
		return outs, err
	}
	outs = append(outs, s)
	if s, err = WorkerSweep(); err != nil {
		return outs, err
	}
	outs = append(outs, s)
	if s, err = PartitionAblation(cfg); err != nil {
		return outs, err
	}
	outs = append(outs, s)
	if s, err = SubgraphOverhead(cfg); err != nil {
		return outs, err
	}
	outs = append(outs, s)
	if s, err = SuperstepSharingAblation(cfg); err != nil {
		return outs, err
	}
	outs = append(outs, s)
	if s, err = ModelComparison(cfg); err != nil {
		return outs, err
	}
	outs = append(outs, s)
	if s, err = FCSAblation(cfg); err != nil {
		return outs, err
	}
	outs = append(outs, s)
	if s, err = ParadigmComparison(cfg); err != nil {
		return outs, err
	}
	outs = append(outs, s)
	if s, err = RecoveryCostSweep(cfg); err != nil {
		return outs, err
	}
	outs = append(outs, s)
	if s, err = CheckpointCompactionSweep(cfg); err != nil {
		return outs, err
	}
	outs = append(outs, s)
	if s, err = PlannerAblation(cfg); err != nil {
		return outs, err
	}
	outs = append(outs, s)
	return outs, nil
}
