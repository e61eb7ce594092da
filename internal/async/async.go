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
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// VertexID aliases graph.VertexID.
type VertexID = graph.VertexID

// Program is an asynchronous vertex program.
type Program[V any] interface {
	// Init seeds values; every vertex is initially scheduled.
	Init(g *graph.Graph, id VertexID) V
	// Update recomputes v from the current values of its neighbors and
	// returns the neighbors to (re)activate. ctx exposes reads of any
	// vertex's current value.
	Update(ctx *Context[V], v VertexID) []VertexID
}

// Config is the asynchronous engine's run environment, the one every
// engine shares (runtime.EngineConfig states what each field means
// here: MaxSupersteps caps updates, CheckpointEvery sets the epoch, and
// Workers, Partition, Mode and PullThreshold are ignored).
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
	g      *graph.Graph
	csr    *graph.CSR
	values []V
	work   int64
	s      *graph.Scratch // pooled span-decode buffers for packed snapshots
}

// Graph returns the input graph. Only its construction-immutable
// properties (N, Directed) are safe to read from Update when a writer
// may be mutating adjacency between jobs; structural reads must go
// through the snapshot accessors (Out, OutWeights, OutEdges).
func (c *Context[V]) Graph() *graph.Graph { return c.g }

// Value returns a pointer to any vertex's current value (reads of
// neighbors see the latest state — the asynchronous semantics).
func (c *Context[V]) Value(v VertexID) *V { return &c.values[v] }

// OutEdges returns v's adjacency as []Edge, materialized fresh from
// the pinned CSR snapshot (never the live graph). Hot update loops
// should prefer the CSR spans (Out/OutWeights), which avoid the
// per-call allocation and the 32-byte Edge layout and let a program
// return the span as its activation list without allocating.
func (c *Context[V]) OutEdges(v VertexID) []graph.Edge {
	d := c.csr.OutDegree(v)
	if d == 0 {
		return nil
	}
	return c.csr.AppendOutEdges(make([]graph.Edge, 0, d), v)
}

// Out returns v's out-neighbor span from the CSR snapshot. The slice
// aliases the snapshot (or, on a packed snapshot, the context's decode
// buffer — the next Out call overwrites it) and must not be modified;
// returning it from Update as the activation list is allocation-free.
func (c *Context[V]) Out(v VertexID) []VertexID { return c.csr.OutSpan(v, c.s) }

// In returns v's in-neighbor span from the CSR snapshot (the out span
// for undirected graphs). It shares the context's decode buffers with
// Out the way OutSpan/InSpan do: one live span per direction.
func (c *Context[V]) In(v VertexID) []VertexID { return c.csr.InSpan(v, c.s) }

// OutWeights returns v's out-edge weight span aligned with Out(v), or
// nil when the graph is unweighted.
func (c *Context[V]) OutWeights(v VertexID) []float64 { return c.csr.OutWeights(v) }

// Preparer is the optional program hook invoked during Prepare with
// the pinned CSR snapshot. Programs that read graph structure outside
// Update (precomputed degrees, a transpose) must do it here, so the
// run closure returned by Prepare never touches the mutable graph.
type Preparer interface {
	PrepareAsync(csr *graph.CSR)
}

// Run executes prog to quiescence under the FIFO scheduler. Run is
// Prepare(g, prog, cfg)().
func Run[V any](g *graph.Graph, prog Program[V], cfg Config) (*Result[V], error) {
	return Prepare(g, prog, cfg)()
}

// Prepare splits a run in two: every read of the mutable graph —
// snapshot pinning, the Preparer hook, Init, worklist seeding —
// happens inside Prepare, so a caller serving concurrent jobs can
// bracket it with its graph lock and invoke the returned closure
// lock-free. The closure unpins the snapshot when it returns.
func Prepare[V any](g *graph.Graph, prog Program[V], cfg Config) func() (*Result[V], error) {
	pr, err := cfg.Prepare(g, rt.EngineDefaults{Name: "async", Cap: func(n int) int { return 200 * (n + 64) }})
	if err != nil {
		return func() (*Result[V], error) { return &Result[V]{Stats: &bsp.Stats{}}, err }
	}
	csr, n := pr.CSR, pr.CSR.N()
	if prep, ok := any(prog).(Preparer); ok {
		prep.PrepareAsync(csr)
	}
	ctx := &Context[V]{g: g, csr: csr, values: make([]V, n), s: rt.GetScratch()}
	for v := 0; v < n; v++ {
		ctx.values[v] = prog.Init(g, VertexID(v))
	}
	// The deduplicating FIFO worklist from the shared runtime replaces
	// the previous slice+inQueue pair; its in-place compaction keeps a
	// long drain with re-activations from reallocating the queue.
	queue := rt.NewFIFO(n)
	for v := 0; v < n; v++ {
		queue.Push(VertexID(v))
	}
	stats := &bsp.Stats{Workers: 1, N: n}
	// One driver step is one epoch of updates; the driver's barrier is
	// the epoch boundary, where faults are detected and checkpoints
	// taken (FaultEvent.Step counts epochs). The policy itself is the
	// shared runtime.WorklistRunner — the same FIFO-epoch machinery that
	// drives the incremental evolving-graph programs.
	p := &rt.WorklistRunner[V]{
		Update: func(v VertexID) []VertexID { return prog.Update(ctx, v) },
		Prog:   prog,
		Values: &ctx.values,
		Queue:  queue,
		N:      n,
	}
	if cfg.Faults != nil {
		// Checkpoint-free restarts restore these pristine Init-time
		// values instead of re-running Init mid-run (PristineQueue nil:
		// a restart reseeds every vertex).
		p.PristineValues = rt.CloneValues[V](prog, ctx.values)
	}
	d := rt.NewWorklistDriver(p, stats, pr.Driver)
	return func() (*Result[V], error) {
		defer pr.Release()
		defer rt.PutScratch(ctx.s)
		_, err := d.Run()
		return &Result[V]{Values: ctx.values, Updates: p.Updates(), Stats: stats}, err
	}
}

// --- Async SSSP (label-correcting) ---

// ssspProgram is label-correcting SSSP from src. seed warm-starts the
// tentative distances from another engine's barrier values (nil is the
// source-only cold start): Update only ever improves a value, so any
// sound upper bound converges to the same distances.
type ssspProgram struct {
	src  VertexID
	seed []float64
}

func (p *ssspProgram) Init(g *graph.Graph, id VertexID) float64 {
	if p.seed != nil {
		return p.seed[id]
	}
	if id == p.src {
		return 0
	}
	return DistInf
}

// DistInf is what the async SSSP program holds for "unreached": a
// finite stand-in for +Inf, shared with the incremental engine and the
// serving wire (vc.Unreachable). Seeds handed to SSSPProgram must use
// it too.
const DistInf = 1e308

func (p *ssspProgram) Update(ctx *Context[float64], v VertexID) []VertexID {
	// Recompute from in-neighbors' live distances (undirected: same set).
	d := DistInf
	if v == p.src {
		d = 0
	}
	dsts := ctx.Out(v)
	if ws := ctx.OutWeights(v); ws == nil {
		for _, u := range dsts {
			if nd := *ctx.Value(u) + 1; nd < d {
				d = nd
			}
		}
	} else {
		for i, u := range dsts {
			if nd := *ctx.Value(u) + ws[i]; nd < d {
				d = nd
			}
		}
	}
	if d < *ctx.Value(v) {
		*ctx.Value(v) = d
		return dsts
	}
	return nil
}

// SSSP computes single-source shortest paths asynchronously
// (label-correcting over live values) on an undirected weighted graph.
func SSSP(g *graph.Graph, src VertexID, cfg Config) ([]float64, *Result[float64], error) {
	return PrepareSSSP(g, src, cfg)()
}

// PrepareSSSP is the job-scoped form of SSSP: graph reads happen now,
// the returned closure runs against the pinned snapshot.
func PrepareSSSP(g *graph.Graph, src VertexID, cfg Config) func() ([]float64, *Result[float64], error) {
	run := Prepare(g, SSSPProgram(src, nil), cfg)
	return func() ([]float64, *Result[float64], error) {
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
	run := Prepare[float64](g, &prProgram{n: g.N(), alpha: alpha, eps: eps}, cfg)
	return func() ([]float64, *Result[float64], error) {
		res, err := run()
		if err != nil {
			return nil, res, err
		}
		return res.Values, res, nil
	}
}

// --- Async connected components (min-label) ---

// ccProgram is min-label propagation. seed warm-starts the labels (nil
// is the identity cold start): Update recomputes from live neighbor
// values, so re-seeding the full FIFO with partially converged labels
// reaches the same fixpoint.
type ccProgram struct{ seed []VertexID }

func (p ccProgram) Init(g *graph.Graph, id VertexID) VertexID {
	if p.seed != nil {
		return p.seed[id]
	}
	return id
}

func (ccProgram) Update(ctx *Context[VertexID], v VertexID) []VertexID {
	min := *ctx.Value(v)
	dsts := ctx.Out(v)
	for _, u := range dsts {
		if l := *ctx.Value(u); l < min {
			min = l
		}
	}
	if min < *ctx.Value(v) {
		*ctx.Value(v) = min
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
	run := Prepare(g, CCProgram(nil), cfg)
	return func() ([]VertexID, *Result[VertexID], error) {
		res, err := run()
		if err != nil {
			return nil, res, err
		}
		return res.Values, res, nil
	}
}

// --- Programs the engine matrix (internal/vc) prepares itself ---

// CCProgram is the min-label component program started from seed
// labels (nil is the identity cold start).
func CCProgram(seed []VertexID) Program[VertexID] { return ccProgram{seed: seed} }

// SSSPProgram is the label-correcting SSSP program started from seed
// distances (nil is the source-only cold start). Unreached entries of
// seed must hold DistInf, not +Inf.
func SSSPProgram(src VertexID, seed []float64) Program[float64] {
	return &ssspProgram{src: src, seed: seed}
}
