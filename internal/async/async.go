// Package async implements an asynchronous vertex-centric execution
// model in the style of GraphLab, the second family of systems the
// paper's §1 surveys ("asynchronous (GraphLab), asynchronous parallel
// (GRACE), barrierless asynchronous parallel (Giraph Unchained)").
// There are no supersteps: a scheduler drains a worklist of active
// vertices; an update function reads the *current* values of the
// vertex's neighbors, writes the vertex's own value, and activates
// neighbors whose recomputation it may have invalidated. Updates apply
// immediately, so information propagates as fast as the schedule
// allows instead of one hop per global barrier — the model's selling
// point, measurable against the BSP engines on identical problems.
//
// The scheduler here is sequential-consistency-by-construction: one
// update at a time in deterministic FIFO order. That keeps results
// reproducible (GraphLab's strongest consistency model) while the
// update counts still expose the async-vs-BSP difference.
package async

import (
	"errors"
	"fmt"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// VertexID aliases graph.VertexID.
type VertexID = graph.VertexID

// Program is an asynchronous vertex program.
type Program[V any] interface {
	// Init seeds values; Prepare schedules every vertex, PrepareSeeded
	// its seeds.
	Init(g *graph.Graph, id VertexID) V
	// Update recomputes v from the current values of its neighbors and
	// returns the neighbors to (re)activate. ctx exposes reads of any
	// vertex's current value.
	Update(ctx *Context[V], v VertexID) []VertexID
}

// Config is the asynchronous engine's run environment, the one every
// engine shares (runtime.EngineConfig states what each field means
// here: MaxSupersteps caps updates, CheckpointEvery sets the epoch, and
// Workers, Partition and Mode are ignored).
type Config = rt.EngineConfig

// ErrUpdateCap reports a run exceeding Config.MaxSupersteps updates. It
// aliases bsp.ErrSuperstepCap, the sentinel shared by every engine, so
// errors.Is works across engines.
var ErrUpdateCap = bsp.ErrSuperstepCap

// Result of an asynchronous run.
type Result[V any] struct {
	Values  []V
	Updates int        // total vertex update invocations (the model's work unit)
	Stats   *bsp.Stats // Workers = 1; Recovery itemizes fault-injection cost
}

// Context exposes the live computation state to Update.
type Context[V any] struct {
	csr    *graph.CSR
	delta  *graph.DeltaCSR // when set, every span is read here, never from csr (its base)
	values []V
	s      *graph.Scratch // cached span-decode buffers for packed snapshots and delta views
}

// Value returns a pointer to any vertex's current value (reads of
// neighbors see the latest state — the asynchronous semantics).
func (c *Context[V]) Value(v VertexID) *V { return &c.values[v] }

// Out returns v's out-neighbor span from the pinned snapshot or delta
// view. The slice aliases the snapshot (or the context's decode buffer —
// the next Out call overwrites it) and must not be modified; returning
// it from Update as the activation list is allocation-free.
func (c *Context[V]) Out(v VertexID) []VertexID {
	if c.delta != nil {
		return c.delta.OutSpan(v, c.s)
	}
	return c.csr.OutSpan(v, c.s)
}

// In returns v's in-neighbor span (the out span for undirected graphs).
// It shares the context's decode buffers with Out the way OutSpan/InSpan
// do: one live span per direction.
func (c *Context[V]) In(v VertexID) []VertexID {
	if c.delta != nil {
		return c.delta.InSpan(v, c.s)
	}
	return c.csr.InSpan(v, c.s)
}

// OutWeights returns v's out-edge weight span aligned with Out(v), or
// nil when every weight is 1.
func (c *Context[V]) OutWeights(v VertexID) []float64 {
	if c.delta != nil {
		return c.delta.OutWeights(v, c.s)
	}
	return c.csr.OutWeights(v)
}

// Preparer is the optional program hook invoked during Prepare with
// the pinned CSR snapshot. Programs that read graph structure outside
// Update (precomputed degrees, a transpose) must do it here, so the
// run closure returned by Prepare never touches the mutable graph.
type Preparer interface {
	PrepareAsync(csr *graph.CSR)
}

// ErrDirected refuses the min-label CC and label-correcting SSSP
// programs on a directed graph: their updates pull over out-spans, which
// are the in-neighborhood only when the graph is undirected. Every cc
// row of the engine matrix (internal/vc) refuses with it too.
var ErrDirected = errors.New("this program needs an undirected graph")

// defaults are the async engine's: sequential, an update cap of
// 200·(n+64).
var defaults = rt.EngineDefaults{Name: "async", Cap: func(n int) int { return 200 * (n + 64) }}

// Run executes prog to quiescence under the FIFO scheduler. Run is
// Prepare(g, prog, cfg)().
func Run[V any](g *graph.Graph, prog Program[V], cfg Config) (*Result[V], error) {
	return Prepare(g, prog, cfg)()
}

// Prepare splits a run in two: every read of the mutable graph —
// snapshot pinning, the Preparer hook, Init, worklist seeding —
// happens inside Prepare, so a caller serving concurrent jobs can
// bracket it with its graph lock and invoke the returned closure
// lock-free. The closure unpins the snapshot when it returns. Every
// vertex starts on the worklist.
func Prepare[V any](g *graph.Graph, prog Program[V], cfg Config) func() (*Result[V], error) {
	pr, err := cfg.Prepare(g, defaults)
	if err != nil {
		return failed[V](err)
	}
	// PrepareSeeded copies the seeds into the worklist, so the list of
	// every vertex is a working array.
	seeds := Every(rt.TakeArray[VertexID](pr.CSR.N()))
	defer rt.KeepArray(seeds)
	return PrepareSeeded(g, prog, pr, seeds)
}

// PrepareSeeded is Prepare from a run environment the caller already
// resolved and from a seed worklist: pr may pin a delta view
// (EngineDefaults.Delta), which every Context span then reads, and the
// worklist starts as seeds in order, so an empty seed list drains
// nothing. The returned closure releases pr; a refused program releases
// it at once.
func PrepareSeeded[V any](g *graph.Graph, prog Program[V], pr *rt.Prepared, seeds []VertexID) func() (*Result[V], error) {
	switch any(prog).(type) {
	case minPlus[VertexID], minPlus[float64]:
		if g.Directed {
			pr.Release()
			return failed[V](fmt.Errorf("%s: %w", pr.Driver.Name, ErrDirected))
		}
	}
	csr, n := pr.CSR, pr.CSR.N()
	if prep, ok := any(prog).(Preparer); ok {
		prep.PrepareAsync(csr)
	}
	ctx := &Context[V]{csr: csr, delta: pr.Delta, values: make([]V, n), s: rt.GetScratch()}
	for v := 0; v < n; v++ {
		ctx.values[v] = prog.Init(g, VertexID(v))
	}
	// The deduplicating FIFO worklist from the shared runtime: a ring
	// over n slots, so a long drain with re-activations never
	// reallocates the queue.
	queue := rt.NewFIFO(n)
	queue.PushAll(seeds)
	stats := &bsp.Stats{Workers: 1, N: n}
	// One driver step is one epoch of updates; the driver's barrier is
	// the epoch boundary, where faults are detected and checkpoints
	// taken (FaultEvent.Step counts epochs).
	p := &rt.WorklistRunner[V]{
		Update: func(v VertexID) []VertexID { return prog.Update(ctx, v) },
		Prog:   prog,
		Values: ctx.values,
		Queue:  queue,
		N:      n,
	}
	d := rt.NewWorklistDriver(p, stats, pr.Driver)
	return func() (*Result[V], error) {
		defer pr.Release()
		defer rt.PutScratch(ctx.s)
		defer p.Release()
		_, err := d.Run()
		return &Result[V]{Values: ctx.values, Updates: p.Updates(), Stats: stats}, err
	}
}

// Every fills all with the cold-start worklist of a graph of len(all)
// vertices, every vertex in ID order, and returns it.
func Every(all []VertexID) []VertexID {
	for v := range all {
		all[v] = VertexID(v)
	}
	return all
}

// failed is a prepared run that only reports err.
func failed[V any](err error) func() (*Result[V], error) {
	return func() (*Result[V], error) { return &Result[V]{Stats: &bsp.Stats{}}, err }
}

// valuesOf adapts a prepared run to the algorithm entry points' shape.
func valuesOf[V any](run func() (*Result[V], error)) func() ([]V, *Result[V], error) {
	return func() ([]V, *Result[V], error) {
		res, err := run()
		if err != nil {
			return nil, res, err
		}
		return res.Values, res, nil
	}
}

// --- Async PageRank (Gauss–Seidel with delta scheduling) ---

type prProgram struct {
	n      int
	alpha  float64
	eps    float64
	outDeg []float64
	csr    *graph.CSR
}

func (p *prProgram) Init(g *graph.Graph, id VertexID) float64 { return 1 / float64(p.n) }

// PrepareAsync caches the pinned snapshot, its transpose, and the
// out-degrees (dangling vertices count 1) before the run starts.
func (p *prProgram) PrepareAsync(csr *graph.CSR) {
	csr.EnsureIn() // the Gauss–Seidel sweep pulls over the transpose
	p.csr = csr
	p.outDeg = make([]float64, p.n)
	for v := 0; v < p.n; v++ {
		d := csr.OutDegree(VertexID(v))
		if d == 0 {
			d = 1
		}
		p.outDeg[v] = float64(d)
	}
}

func (p *prProgram) Update(ctx *Context[float64], v VertexID) []VertexID {
	var sum float64
	for _, u := range ctx.In(v) {
		sum += *ctx.Value(u) / p.outDeg[u]
	}
	nr := (1-p.alpha)/float64(p.n) + p.alpha*sum
	old := *ctx.Value(v)
	*ctx.Value(v) = nr
	if d := nr - old; d > p.eps || d < -p.eps {
		return ctx.Out(v)
	}
	return nil
}

// PageRank computes PageRank asynchronously: Gauss–Seidel sweeps over
// live values with delta-based rescheduling, converging to the same
// fixpoint as synchronous power iteration but typically in fewer
// updates (newer information propagates within a single drain).
func PageRank(g *graph.Graph, alpha, eps float64, cfg Config) ([]float64, *Result[float64], error) {
	return PreparePageRank(g, alpha, eps, cfg)()
}

// PreparePageRank is the job-scoped form of PageRank: the transpose
// and out-degrees are captured from the pinned snapshot now, the
// returned closure runs lock-free.
func PreparePageRank(g *graph.Graph, alpha, eps float64, cfg Config) func() ([]float64, *Result[float64], error) {
	return valuesOf(Prepare[float64](g, &prProgram{n: g.N(), alpha: alpha, eps: eps}, cfg))
}

// --- Async label correcting: connected components and SSSP ---

// minPlus lowers runtime.MinPlus to an update: v takes the smallest
// live offer of its neighbours (in-neighbours: the graph is undirected)
// when it is below its own label. Update only ever lowers a label, so
// draining a worklist that covers every vertex whose label is not yet
// final reaches the same fixpoint from any sound start, which is why an
// incremental run may seed the labels with a repaired prior.
type minPlus[V VertexID | float64] struct{ k rt.MinPlus[V] }

func (p minPlus[V]) Init(g *graph.Graph, id VertexID) V { return p.k.Init(id) }

func (p minPlus[V]) Update(ctx *Context[V], v VertexID) []VertexID {
	l := *ctx.Value(v)
	dsts := ctx.Out(v)
	var ws []float64
	if p.k.Weighted() {
		ws = ctx.OutWeights(v)
	}
	for i, u := range dsts {
		l = min(l, p.k.OfferOver(*ctx.Value(u), ws, i))
	}
	if l < *ctx.Value(v) {
		*ctx.Value(v) = l
		return dsts
	}
	return nil
}

// ConnectedComponents labels components with the minimum member ID via
// asynchronous min-label propagation.
func ConnectedComponents(g *graph.Graph, cfg Config) ([]VertexID, *Result[VertexID], error) {
	return PrepareConnectedComponents(g, cfg)()
}

// PrepareConnectedComponents is the job-scoped form of
// ConnectedComponents.
func PrepareConnectedComponents(g *graph.Graph, cfg Config) func() ([]VertexID, *Result[VertexID], error) {
	return valuesOf(Prepare(g, CCProgram(nil), cfg))
}

// SSSP computes single-source shortest paths asynchronously
// (label-correcting over live values) on an undirected weighted graph.
// Unreachable vertices keep +Inf.
func SSSP(g *graph.Graph, src VertexID, cfg Config) ([]float64, *Result[float64], error) {
	return PrepareSSSP(g, src, cfg)()
}

// PrepareSSSP is the job-scoped form of SSSP: graph reads happen now,
// the returned closure runs against the pinned snapshot.
func PrepareSSSP(g *graph.Graph, src VertexID, cfg Config) func() ([]float64, *Result[float64], error) {
	return valuesOf(Prepare(g, SSSPProgram(src, nil), cfg))
}

// --- Programs internal/vc prepares itself (matrix and inc rows) ---

// CCProgram is the min-label component program started from seed
// labels (nil is the identity cold start).
func CCProgram(seed []VertexID) Program[VertexID] { return minPlus[VertexID]{rt.CC(seed)} }

// SSSPProgram is the label-correcting SSSP program started from seed
// distances (nil is the source-only cold start; unreached is +Inf).
func SSSPProgram(src VertexID, seed []float64) Program[float64] {
	return minPlus[float64]{rt.SSSP(src, seed)}
}
