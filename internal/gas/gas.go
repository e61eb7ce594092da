// Package gas implements a minimal gather-apply-scatter engine in the
// style of PowerGraph, the third programming model the paper's §1
// surveys next to synchronous vertex-centric (Pregel) and
// subgraph-centric (Giraph++). Computation is pull-based: an active
// vertex GATHERs an associative summary over its in-neighbors' values,
// APPLYs it to its own value, and — when the value changed — SCATTERs
// activation to its out-neighbors. There are no messages; each
// iteration gathers from the previous iteration's values (an active
// vertex applies into a scratch slot, written back after the barrier),
// so the engine is deterministic and race-free by construction. The
// active set lives on the shared runtime.Worklists, so an iteration
// costs O(active vertices + their in-edges), not O(n).
package gas

import (
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// VertexID aliases graph.VertexID.
type VertexID = graph.VertexID

// Program is a GAS vertex program over value type V and gather type G.
type Program[V, G any] interface {
	// Init seeds vertex values; every vertex starts active.
	Init(g *graph.Graph, id VertexID) V
	// Gather produces u's contribution to v along edge (u -> v) of
	// weight w, given u's value from the previous iteration. The engine
	// feeds it straight from CSR transpose spans, so no Edge value is
	// materialized on the gather path.
	Gather(u VertexID, w float64, uVal V) G
	// Zero is the identity of Sum.
	Zero() G
	// Sum combines gather contributions (associative, commutative).
	Sum(a, b G) G
	// Apply folds the gathered total into v's value and reports whether
	// the value changed enough to scatter.
	Apply(v *V, total G) bool
}

// Config is the GAS engine's run environment, the one every engine
// shares (runtime.EngineConfig states what each field means here).
type Config = rt.EngineConfig

// ErrIterationCap reports a run exceeding Config.MaxSupersteps. It
// aliases bsp.ErrSuperstepCap, the sentinel shared by every engine, so
// errors.Is works across engines.
var ErrIterationCap = bsp.ErrSuperstepCap

// Result of a GAS run.
type Result[V any] struct {
	Values     []V
	Iterations int
	Stats      *bsp.Stats // Work = gather ops; Sent/Recv = activations
}

// Preparer is an optional Program extension: PrepareGAS runs once at
// engine construction with the run's pinned CSR snapshot — the place
// to precompute graph-derived tables (degrees) so the run phase never
// reads the mutable graph.
type Preparer interface {
	PrepareGAS(csr *graph.CSR)
}

// Stepper is an optional Program extension: BeforeStep runs
// single-threaded at the top of every iteration with the global
// iteration index. Programs whose Apply semantics depend on the global
// step (the fixed-K synchronous PageRank, which must stop after
// exactly k folds) implement it to observe the step without threading
// it through Gather/Apply.
type Stepper interface {
	BeforeStep(step int)
}

// Run executes prog on g to quiescence. The graph must be directed
// with in-adjacency built, or undirected (in = out). The iteration
// lifecycle — dispatch, fault firing, checkpoint cadence, rollback,
// halting, cost accounting — is owned by the shared runtime.Driver;
// this package contributes the gather/apply/scatter policy.
func Run[V, G any](g *graph.Graph, prog Program[V, G], cfg Config) (*Result[V], error) {
	return Prepare(g, prog, cfg)()
}

// defaults are the engine's run settings where Config leaves them unset.
var defaults = rt.EngineDefaults{
	Name:      "gas",
	Workers:   4,
	Cap:       func(n int) int { return 10 * (n + 64) },
	Partition: rt.PartitionRunsCSR,
}

// Prepare builds the engine for prog over g — pinning the CSR
// snapshot, partitioning, and seeding every vertex value — and returns
// the run. Every read of the mutable graph happens inside Prepare; the
// returned closure touches only the snapshot and engine-private state,
// so a serving layer can construct jobs under a graph read lock and
// execute them lock-free while writers mutate and republish.
func Prepare[V, G any](g *graph.Graph, prog Program[V, G], cfg Config) func() (*Result[V], error) {
	pr, err := cfg.Prepare(g, defaults)
	if err != nil {
		return func() (*Result[V], error) { return &Result[V]{Stats: &bsp.Stats{}}, err }
	}
	p := newPolicy(g, prog, pr)
	stats := &bsp.Stats{Workers: p.cfg.Workers, N: p.n}
	p.driver = rt.NewDriver[*gasSnapshot[V]](p, stats, pr.Driver)
	return func() (*Result[V], error) {
		defer pr.Release()
		defer rt.PutScratches(p.scratch)
		defer p.release()
		iters, err := p.driver.Run()
		return &Result[V]{Values: p.cur, Iterations: iters, Stats: stats}, err
	}
}

// newPolicy builds the engine state over a prepared run: values seeded
// by Init, every vertex active.
func newPolicy[V, G any](g *graph.Graph, prog Program[V, G], pr *rt.Prepared) *policy[V, G] {
	cfg := pr.Driver.EngineConfig
	csr, n := pr.CSR, pr.CSR.N()
	csr.EnsureIn() // pull model gathers over the transpose
	p := &policy[V, G]{
		g:       g,
		prog:    prog,
		cfg:     cfg,
		csr:     csr,
		verts:   pr.Verts,
		owner:   pr.Owner,
		n:       n,
		cur:     make([]V, n),
		next:    rt.TakeArray[V](n),
		wl:      rt.NewWorklists(pr.Verts, n),
		dirty:   rt.TakeArray[bool](n),
		wake:    rt.PerWorker[[]VertexID](cfg.Workers),
		scratch: rt.GetScratches(cfg.Workers),
	}
	if cfg.Mode != rt.DirectionPush {
		p.bcast = rt.NewBroadcasts[struct{}](n)
	}
	if prep, ok := any(prog).(Preparer); ok {
		prep.PrepareGAS(csr)
	}
	for v := 0; v < n; v++ {
		p.cur[v] = prog.Init(g, VertexID(v))
	}
	p.wl.FillAll(p.verts)
	return p
}

// policy is the GAS engine as a runtime.Policy: values with a scratch
// slot per active vertex, an active set on the runtime worklists (fed
// by scatter-side wake buffers or the pull activation pass, as in
// pregel), and partitioned vertex-to-worker assignment (hash by
// default, matching the historical strided schedule).
type policy[V, G any] struct {
	g      *graph.Graph
	prog   Program[V, G]
	cfg    Config
	csr    *graph.CSR
	verts  [][]VertexID // worker -> owned vertices, ascending
	owner  []int32      // vertex -> worker
	n      int
	driver *rt.Driver[*gasSnapshot[V]]

	cur  []V
	next []V // scratch: an active vertex applies here, written back to cur after the barrier
	wl   *rt.Worklists
	// dirty marks vertices whose value may have changed since the last
	// checkpoint frame: only vertices that ran Apply are written back,
	// so the iteration's active set is exactly the write set.
	dirty   []bool
	wake    []rt.Padded[[]VertexID] // per-worker scatter buffers, reused
	scratch []*graph.Scratch        // cached per-worker span-decode buffers (packed snapshots)

	// Pull-mode scatter (Mode pull/auto): changed vertices mark their
	// broadcast bit; the activation pass scans transpose spans for
	// marked in-neighbors instead of merging wake buffers.
	bcast *rt.Broadcasts[struct{}]
}

// release gives the working arrays back to the run-buffer cache when
// the run ends; cur, the values the run returns, stays with the caller.
func (p *policy[V, G]) release() {
	rt.KeepArray(p.next)
	rt.KeepArray(p.dirty)
	p.wl.Release()
	if p.bcast != nil {
		p.bcast.Release()
	}
	p.next, p.dirty = nil, nil
}

// Quiescent implements runtime.Policy.
func (p *policy[V, G]) Quiescent(step, pending int) bool { return p.wl.Pending() == 0 }

// Superstep implements runtime.Policy: one gather/apply/scatter
// iteration over the active set, then the single-threaded wake-buffer
// merge (where a scatter batch can be lost or redelivered in transit).
func (p *policy[V, G]) Superstep(step int, ss *bsp.SuperstepStats) (int, error) {
	prog, csr := p.prog, p.csr
	workers := p.cfg.Workers
	if st, ok := any(prog).(Stepper); ok {
		st.BeforeStep(step)
	}
	frontier := p.wl.Pending()
	ss.Frontier = int64(frontier)
	// Direction choice for the scatter half: GAS Sum is associative and
	// commutative by contract, so pull is always legal when enabled.
	pull := rt.ChoosePull(p.cfg.Mode, p.bcast != nil, frontier, p.n)
	ss.Pulled = pull
	if pull {
		p.bcast.Advance()
	}
	p.wl.Flip()
	p.driver.Lease().Run(func(w int) {
		var workW, sentW int64
		for _, vid := range p.wl.Cur(w) {
			v := int(vid)
			p.wl.Unmark(vid)
			p.next[v] = p.cur[v]
			p.dirty[v] = true
			total := prog.Zero()
			srcs := csr.InSpan(vid, p.scratch[w])
			if ws := csr.InWeights(vid); ws == nil {
				for _, u := range srcs {
					total = prog.Sum(total, prog.Gather(u, 1, p.cur[u]))
				}
			} else {
				for i, u := range srcs {
					total = prog.Sum(total, prog.Gather(u, ws[i], p.cur[u]))
				}
			}
			workW += int64(len(srcs))
			if prog.Apply(&p.next[v], total) {
				if pull {
					// Pulled scatter: mark the change; destinations
					// find it on their transpose spans below. No
					// wake traffic crosses workers, so Sent stays at
					// the boundary count (0).
					p.bcast.Set(vid, struct{}{}, nil)
				} else {
					// Scatter: wake out-neighbors (buffered per
					// worker; merged after the barrier).
					out := csr.OutSpan(vid, p.scratch[w])
					sentW += int64(len(out))
					p.wake[w].V = append(p.wake[w].V, out...)
				}
			}
			workW++
		}
		ss.Work[w] = workW
		ss.Sent[w] = sentW
		ss.Active[w] = int64(len(p.wl.Cur(w)))
	})
	if pull {
		// Pull-mode activation: each worker scans its owned vertices'
		// transpose spans for a marked in-neighbor. The set computed is
		// exactly ∪ Out(changed) — identical to the wake-buffer merge —
		// and the writes are sharded by owner, so the pass is race-free
		// and runs in parallel (the single-threaded merge below is the
		// push path's serialization point). The pass reads bcast, never
		// cur, so it also writes back the worker's applied values.
		// Nothing is in transit, so scatter-batch faults have nothing
		// to drop on a pulled iteration.
		p.driver.Lease().Run(func(w int) {
			p.writeBack(w)
			for _, vid := range p.verts[w] {
				for _, u := range csr.InSpan(vid, p.scratch[w]) {
					if p.bcast.Has(u) {
						p.wl.Add(w, vid)
						break
					}
				}
			}
		})
	} else {
		inj := p.driver.Injector()
		for w := 0; w < workers; w++ {
			p.writeBack(w)
			passes := 1
			switch inj.LaneFault(step, w, 0) {
			case rt.FaultDropLane:
				// The worker's scatter batch is lost in transit; the
				// activations are unrecoverable, so force a rollback at
				// the next barrier.
				passes = 0
				p.driver.LoseBatch()
			case rt.FaultDupLane:
				// A redelivered batch is absorbed: activation is a set
				// union, so merging it twice is a no-op.
				passes = 2
			}
			for pass := 0; pass < passes; pass++ {
				for _, v := range p.wake[w].V {
					p.wl.Add(int(p.owner[v]), v)
				}
			}
			p.wake[w].V = p.wake[w].V[:0]
		}
	}
	return p.wl.Pending(), nil
}

// writeBack publishes worker w's applied values: cur[v] = next[v] for
// every vertex the iteration ran. Only after the barrier, when no
// gather still reads cur.
func (p *policy[V, G]) writeBack(w int) {
	for _, v := range p.wl.Cur(w) {
		p.cur[v] = p.next[v]
	}
}

// Snapshot implements runtime.Policy: the values of every vertex (full)
// or of those dirtied since the previous frame (delta), plus the
// complete active set — dense in a full frame, sparse in a delta, where
// it is small exactly when deltas pay off. Its arrays are leased from
// the run-buffer cache; Retire gives them back.
func (p *policy[V, G]) Snapshot(full bool) *gasSnapshot[V] {
	ids := rt.TakeDirty[VertexID](p.dirty, full)
	snap := &gasSnapshot[V]{ids: ids, values: rt.CloneValuesAt(p.prog, p.cur, ids)}
	if full {
		snap.active = rt.TakeArray[bool](p.n)
		for w := range p.verts {
			for _, v := range p.wl.Next(w) {
				snap.active[v] = true
			}
		}
		return snap
	}
	snap.activeIDs = rt.TakeArray[VertexID](p.wl.Pending())
	at := 0
	for w := range p.verts {
		at += copy(snap.activeIDs[at:], p.wl.Next(w))
	}
	return snap
}

// Retire implements runtime.Policy.
func (p *policy[V, G]) Retire(snap *gasSnapshot[V]) {
	rt.KeepArray(snap.ids)
	rt.KeepArray(snap.values)
	rt.KeepArray(snap.active)
	rt.KeepArray(snap.activeIDs)
}

// Restore implements runtime.Policy: write the frame's values back and
// replace the active set wholesale (every frame carries it complete).
func (p *policy[V, G]) Restore(snap *gasSnapshot[V], step int) {
	rt.RestoreValuesAt(p.prog, p.cur, snap.values, snap.ids)
	p.wl.Clear()
	for v, a := range snap.active {
		if a {
			p.wl.Add(int(p.owner[v]), VertexID(v))
		}
	}
	for _, v := range snap.activeIDs {
		p.wl.Add(int(p.owner[v]), v)
	}
	clear(p.dirty)
}

// FrameBytes implements runtime.Policy; the trailing 8 bytes are the
// active set's length word.
func (p *policy[V, G]) FrameBytes(snap *gasSnapshot[V]) int64 {
	szID := rt.SizeOf[VertexID]()
	return int64(len(snap.values))*rt.SizeOf[V]() +
		int64(len(snap.active)) +
		int64(len(snap.ids))*szID +
		int64(len(snap.activeIDs))*szID + 8
}

// gasSnapshot is one checkpoint frame of a GAS run, the barrier state
// entering an iteration: the values of the vertices in ids (nil: every
// vertex), indexed by position in ids, and the active set — active
// (dense) in a full frame, activeIDs (sparse) in a delta.
type gasSnapshot[V any] struct {
	ids       []VertexID
	values    []V
	active    []bool
	activeIDs []VertexID
}

// --- GAS PageRank ---

type prProgram struct {
	n      int
	alpha  float64
	eps    float64
	outDeg []float64
}

type prVal struct{ rank float64 }

func (p *prProgram) Init(g *graph.Graph, id VertexID) prVal {
	return prVal{rank: 1 / float64(p.n)}
}

// PrepareGAS precomputes out-degrees from the pinned snapshot, so
// Gather never touches the mutable graph during the run.
func (p *prProgram) PrepareGAS(csr *graph.CSR) { p.outDeg = outDegrees(csr) }

// outDegrees returns every vertex's out-degree as a divisor: a dangling
// vertex counts 1 (its rank leaks, matching the Pregel variant).
func outDegrees(csr *graph.CSR) []float64 {
	deg := make([]float64, csr.N())
	for v := range deg {
		deg[v] = float64(max(csr.OutDegree(VertexID(v)), 1))
	}
	return deg
}

func (p *prProgram) Gather(u VertexID, w float64, uVal prVal) float64 {
	// u is the in-neighbor; its rank spreads over its out-degree.
	return uVal.rank / p.outDeg[u]
}

func (p *prProgram) Zero() float64            { return 0 }
func (p *prProgram) Sum(a, b float64) float64 { return a + b }

func (p *prProgram) Apply(v *prVal, total float64) bool {
	nr := (1-p.alpha)/float64(p.n) + p.alpha*total
	changed := nr-v.rank > p.eps || v.rank-nr > p.eps
	v.rank = nr
	return changed
}

// PageRank runs adaptive (delta-scheduled) PageRank in the GAS model
// until every vertex's rank moves less than eps in an iteration.
func PageRank(g *graph.Graph, alpha, eps float64, cfg Config) ([]float64, *Result[prVal], error) {
	return PreparePageRank(g, alpha, eps, cfg)()
}

// PreparePageRank is the two-phase form of PageRank: graph reads
// happen now, the returned closure runs lock-free on the pinned
// snapshot (see Prepare).
func PreparePageRank(g *graph.Graph, alpha, eps float64, cfg Config) func() ([]float64, *Result[prVal], error) {
	n := g.N()
	prog := &prProgram{n: n, alpha: alpha, eps: eps}
	run := Prepare[prVal, float64](g, prog, cfg)
	return func() ([]float64, *Result[prVal], error) {
		res, err := run()
		if err != nil {
			return nil, nil, err
		}
		ranks := make([]float64, n)
		for v, val := range res.Values {
			ranks[v] = val.rank
		}
		return ranks, res, nil
	}
}

// --- GAS label correcting: connected components and SSSP ---

// minPlus lowers runtime.MinPlus to a gather: a vertex folds its
// in-neighbours' offers with min, from the kernel's unreached label,
// and applies the total when it is below the vertex's label. Every
// vertex starts active, so the first iteration pulls every initial
// label (the source's distance, every component label) one hop
// without anything pushed.
type minPlus[V VertexID | float64] struct{ k rt.MinPlus[V] }

func (p minPlus[V]) Init(g *graph.Graph, id VertexID) V { return p.k.Init(id) }

func (p minPlus[V]) Gather(u VertexID, w float64, l V) V { return p.k.Offer(l, w) }

func (p minPlus[V]) Zero() V { return p.k.Top() }

func (minPlus[V]) Sum(a, b V) V { return min(a, b) }

func (minPlus[V]) Apply(v *V, total V) bool {
	if total < *v {
		*v = total
		return true
	}
	return false
}

// ConnectedComponents labels every vertex with the smallest vertex ID
// in its (weakly, pull-over-in-edges) connected component; on
// undirected graphs this matches seq.Components. Min is associative
// and order-independent, so the result is identical across worker
// counts and fault schedules.
func ConnectedComponents(g *graph.Graph, cfg Config) ([]VertexID, *Result[VertexID], error) {
	return PrepareConnectedComponents(g, cfg)()
}

// PrepareConnectedComponents is the two-phase form of
// ConnectedComponents (see Prepare).
func PrepareConnectedComponents(g *graph.Graph, cfg Config) func() ([]VertexID, *Result[VertexID], error) {
	return valuesOf(Prepare(g, CCProgram(), cfg))
}

// SSSP computes single-source shortest paths by pull-based distance
// relaxation (Bellman-Ford style). Unreachable vertices keep +Inf,
// matching seq.Dijkstra, and results are byte-identical across worker
// counts and fault schedules.
func SSSP(g *graph.Graph, src VertexID, cfg Config) ([]float64, *Result[float64], error) {
	return PrepareSSSP(g, src, cfg)()
}

// PrepareSSSP is the two-phase form of SSSP (see Prepare).
func PrepareSSSP(g *graph.Graph, src VertexID, cfg Config) func() ([]float64, *Result[float64], error) {
	return valuesOf(Prepare(g, SSSPProgram(src), cfg))
}

// valuesOf adapts a prepared run to the algorithm entry points' shape.
func valuesOf[V any](run func() (*Result[V], error)) func() ([]V, *Result[V], error) {
	return func() ([]V, *Result[V], error) {
		res, err := run()
		if err != nil {
			return nil, nil, err
		}
		return res.Values, res, nil
	}
}

// --- Programs the engine matrix (internal/vc) prepares itself ---
//
// The matrix runs every GAS row through Prepare and one generic
// adapter, so it builds these programs itself.

// CCProgram is the HashMin component program.
func CCProgram() Program[VertexID, VertexID] { return minPlus[VertexID]{rt.CC(nil)} }

// SSSPProgram is the pull-relaxation SSSP program from src.
func SSSPProgram(src VertexID) Program[float64, float64] { return minPlus[float64]{rt.SSSP(src, nil)} }

// prFixedK is synchronous power-iteration PageRank for exactly k
// folds, which engine "auto" runs so that a GAS PageRank is
// bit-compatible with the Pregel fixed-iteration variant. Unlike the
// adaptive eps-scheduled prProgram it never stops early on small
// deltas: a vertex stays asleep only while every in-neighbor's rank is
// bitwise unchanged, in which case its skipped fold would have
// recomputed the identical value (same operands, same csr.In order).
// That lazy-wake invariant makes the k-th iterate equal, bit for bit,
// to the dense power iteration.
type prFixedK struct {
	n      int
	k      int
	alpha  float64
	seed   []float64
	outDeg []float64
	step   int
}

func (p *prFixedK) Init(g *graph.Graph, id VertexID) float64 {
	if p.seed != nil {
		return p.seed[id]
	}
	return 1 / float64(p.n)
}

// PrepareGAS precomputes out-degrees from the pinned snapshot.
func (p *prFixedK) PrepareGAS(csr *graph.CSR) { p.outDeg = outDegrees(csr) }

// BeforeStep tracks the superstep so Apply can stop after exactly k
// folds.
func (p *prFixedK) BeforeStep(step int) { p.step = step }

func (p *prFixedK) Gather(u VertexID, w float64, uRank float64) float64 {
	return uRank / p.outDeg[u]
}

func (p *prFixedK) Zero() float64            { return 0 }
func (p *prFixedK) Sum(a, b float64) float64 { return a + b }

func (p *prFixedK) Apply(v *float64, total float64) bool {
	if p.step >= p.k {
		return false
	}
	nr := (1-p.alpha)/float64(p.n) + p.alpha*total
	changed := nr != *v
	*v = nr
	return changed && p.step+1 < p.k
}

// PageRankFixedK builds the fixed-iteration PageRank program: exactly
// k synchronous folds from seed ranks (nil means uniform 1/n). The
// returned program implements Preparer and Stepper.
func PageRankFixedK(n, k int, alpha float64, seed []float64) Program[float64, float64] {
	return &prFixedK{n: n, k: k, alpha: alpha, seed: seed}
}
