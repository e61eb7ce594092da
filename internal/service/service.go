// Package service implements the job-serving layer behind cmd/vcd: a
// registry of named graphs, a job registry fed through the shared
// runtime.Scheduler, and the JSON/HTTP handlers that expose both.
//
// Concurrency contract. Each named graph carries a RWMutex. A job —
// once admitted by the scheduler — takes the read lock only for the
// engine's prepare phase (which pins a CSR snapshot and performs every
// read of the mutable adjacency, including Init), then releases it and
// runs against the pinned snapshot lock-free. Writers (edge additions)
// take the write lock across mutate-and-republish, so they wait for
// in-flight prepares but never for runs: a long job and a graph update
// proceed concurrently, and the job's results are those of the
// snapshot it pinned. Jobs cancelled while still queued never reach
// the prepare phase, so they pin nothing.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	rt "vcgraph/internal/runtime"
	"vcgraph/internal/vc"
)

// GraphSpec describes a graph to register: either a named generator
// (gen/n/m/seed, mirroring cmd/vcrun) or an explicit edge list.
type GraphSpec struct {
	Name string `json:"name"`
	// Gen selects a generator: random, connected, powerlaw, path,
	// cycle, grid, star, tree, directed. Empty means Edges is explicit.
	Gen  string `json:"gen,omitempty"`
	N    int    `json:"n,omitempty"`
	M    int    `json:"m,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	// Directed applies to explicit edge lists (generators fix their
	// own directedness).
	Directed bool `json:"directed,omitempty"`
	// Edges lists explicit edges as [u, v] or [u, v, w] triples.
	Edges [][]float64 `json:"edges,omitempty"`
	// Weights assigns seeded random weights after construction (for
	// weighted SSSP, as cmd/vcrun does).
	Weights bool `json:"weights,omitempty"`
}

// MutationSpec is one wire-level mutation: op is "insert" or "delete".
// Insert weight 0 means 1 (matching AddEdge); delete weight is ignored
// (first-match semantics, the log canonicalizes the removed weight).
type MutationSpec struct {
	Op string  `json:"op"`
	U  int     `json:"u"`
	V  int     `json:"v"`
	W  float64 `json:"w,omitempty"`
}

// JobSpec describes a job to submit.
type JobSpec struct {
	Graph  string `json:"graph"`
	Algo   string `json:"algo"`             // pagerank | sssp | cc | kcore
	Engine string `json:"engine,omitempty"` // pregel (default) | gas | async | blockcentric | inc | auto
	// Incremental runs the algorithm's evolving-graph form (engine
	// "inc", which it implies and no other engine takes; cc and sssp
	// only): warm-started from the job named by Resume when its state
	// is still valid for the graph's mutation log, cold otherwise.
	Incremental bool `json:"incremental,omitempty"`
	// Resume names a prior job ID to warm-start from. The prior job
	// must have succeeded on the same registration of the same graph
	// with the same algorithm and parameters. 0 means a cold incremental
	// run.
	Resume int64 `json:"resume,omitempty"`
	// Mode is the direction mode of the engines that have one (pregel,
	// gas, blockcentric): push, pull, or auto (default).
	Mode    string `json:"mode,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Src     int    `json:"src,omitempty"`
	// Alpha/K/Eps parameterize PageRank (defaults 0.85, 30, 1e-9).
	Alpha float64 `json:"alpha,omitempty"`
	K     int     `json:"k,omitempty"`
	Eps   float64 `json:"eps,omitempty"`
	// FCS enables finishing-computations-serially for cc on pregel.
	FCS int `json:"fcs,omitempty"`
	// Checkpoint/Faults pass through to the engine's fault tolerance;
	// Faults seeds a deterministic runtime.FaultPlan. CheckpointEvery
	// is a wire alias of Checkpoint (withDefaults folds it in);
	// FullSnapshot > 1 stores only every Nth checkpoint full, the
	// generations between as dirty-set deltas (runtime.Checkpoints).
	Checkpoint      int   `json:"checkpoint,omitempty"`
	CheckpointEvery int   `json:"checkpoint_every,omitempty"`
	FullSnapshot    int   `json:"full_snapshot_every,omitempty"`
	Faults          int64 `json:"faults,omitempty"`
	// TimeoutMS bounds the job's wall time (queue wait included).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Options configures a Server beyond the scheduler's pool shape.
type Options struct {
	// Workers is the shared pool size (0 = GOMAXPROCS).
	Workers int
	// MaxJobs caps concurrently admitted jobs (0 = 1).
	MaxJobs int
	// JobRetention caps retained terminal job records: once exceeded,
	// the oldest terminal records are evicted at submit time (queued
	// and running jobs are never evicted). 0 means DefaultJobRetention.
	JobRetention int
	// GraphTTL, when positive, lets EvictGraphs drop graphs idle
	// longer than this — except graphs with pinned snapshots, which a
	// running job may still be reading.
	GraphTTL time.Duration
	// DefaultCheckpointEvery, when positive, is the checkpoint cadence
	// applied to jobs that set neither checkpoint nor checkpoint_every.
	DefaultCheckpointEvery int
	// DefaultFullSnapshotEvery, when > 1, is the full-snapshot cadence
	// (delta checkpointing) applied to jobs that leave
	// full_snapshot_every unset.
	DefaultFullSnapshotEvery int
	// PlanTrace, when non-nil, observes the plan decision an
	// engine-"auto" job takes at prepare time. The daemon uses it to log
	// decisions; the decision is also in job status once the run
	// finishes.
	PlanTrace func(jobID int64, d plan.Decision)
}

// DefaultJobRetention bounds the job registry when Options.JobRetention
// is zero: without a cap, a long-lived daemon's registry (records,
// result vectors, superstep traces) grows without bound.
const DefaultJobRetention = 512

// Server owns the graph store, the job registry, and the scheduler.
type Server struct {
	sched *rt.Scheduler
	opts  Options
	now   func() time.Time // test seam for TTL eviction

	mu       sync.Mutex
	graphs   map[string]*graphEntry
	regs     int64 // graph registrations so far, numbering graphEntry.reg
	jobs     map[int64]*jobRecord
	jobOrder []int64 // submission order, for oldest-first eviction
}

// graphEntry pairs a mutable graph with the lock bracketing its
// prepare-phase reads and its mutations (see the package comment).
type graphEntry struct {
	mu sync.RWMutex
	g  *graph.Graph
	// reg numbers this registration: a name evicted and registered again
	// is another graph, whose epochs restart.
	reg int64

	// lastUsed is the last registration, mutation, or job submission
	// touching this graph, guarded by the server mutex (not mu).
	lastUsed time.Time
}

// jobRecord pairs a runtime job handle with its spec, the graph
// registration it ran on and, once the run succeeds, its result.
type jobRecord struct {
	spec JobSpec
	reg  int64
	job  *rt.Job

	mu  sync.Mutex
	res *runResult
}

func (r *jobRecord) result() *runResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.res
}

// New builds a Server over workers pool goroutines (0 = GOMAXPROCS)
// admitting at most maxJobs concurrent jobs (0 = 1).
func New(workers, maxJobs int) *Server {
	return NewServer(Options{Workers: workers, MaxJobs: maxJobs})
}

// NewServer builds a Server with explicit retention options.
func NewServer(opts Options) *Server {
	if opts.JobRetention <= 0 {
		opts.JobRetention = DefaultJobRetention
	}
	return &Server{
		sched:  rt.NewScheduler(opts.Workers, opts.MaxJobs),
		opts:   opts,
		now:    time.Now,
		graphs: make(map[string]*graphEntry),
		jobs:   make(map[int64]*jobRecord),
	}
}

// Close stops the shared pool. Outstanding jobs must be terminal.
func (s *Server) Close() { s.sched.Close() }

// Scheduler exposes the underlying scheduler (for tests and stats).
func (s *Server) Scheduler() *rt.Scheduler { return s.sched }

// errUnknownGraph et al. are wire-level validation errors.
var (
	errUnknownGraph = errors.New("service: unknown graph")
	errUnknownJob   = errors.New("service: unknown job")
)

// RegisterGraph validates spec, builds the graph, and registers it
// under its name. Re-registering a name is an error.
func (s *Server) RegisterGraph(spec GraphSpec) error {
	if spec.Name == "" {
		return errors.New("service: graph name required")
	}
	g, err := buildGraph(spec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.graphs[spec.Name]; dup {
		return fmt.Errorf("service: graph %q already registered", spec.Name)
	}
	s.regs++
	s.graphs[spec.Name] = &graphEntry{g: g, reg: s.regs, lastUsed: s.now()}
	return nil
}

// AddEdges appends edges ([u, v] or [u, v, w]) to a registered graph.
// It is sugar for MutateGraph with insert-only mutations, so bulk
// appends flow through the mutation log and keep incremental resume
// valid across them.
func (s *Server) AddEdges(name string, edges [][]float64) error {
	ent, err := s.graph(name)
	if err != nil {
		return err
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	muts := make([]graph.Mutation, 0, len(edges))
	for _, e := range edges {
		u, v, w, err := parseEdge(e, ent.g.N())
		if err != nil {
			return err
		}
		muts = append(muts, graph.Mutation{Op: graph.InsertEdge, U: u, V: v, W: w})
	}
	_, err = ent.g.ApplyMutations(muts)
	return err
}

// MutateGraph applies one atomic batch of wire-level mutations to a
// registered graph under its write lock and returns the graph's new
// epoch. An invalid batch (bad op, out-of-range endpoint, deleting a
// missing edge) is rejected whole: the graph and its epoch are
// untouched.
func (s *Server) MutateGraph(name string, specs []MutationSpec) (int64, error) {
	ent, err := s.graph(name)
	if err != nil {
		return 0, err
	}
	muts := make([]graph.Mutation, len(specs))
	for i, m := range specs {
		var op graph.MutationOp
		switch m.Op {
		case "insert":
			op = graph.InsertEdge
			if m.W == 0 {
				m.W = 1
			}
		case "delete":
			op = graph.DeleteEdge
			m.W = 0
		default:
			return 0, fmt.Errorf("service: mutation %d: unknown op %q", i, m.Op)
		}
		muts[i] = graph.Mutation{Op: op, U: graph.VertexID(m.U), V: graph.VertexID(m.V), W: m.W}
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	epoch, err := ent.g.ApplyMutations(muts)
	if err != nil {
		return 0, fmt.Errorf("service: %w", err)
	}
	return epoch, nil
}

// GraphInfo reports a registered graph's shape and mutation epoch.
func (s *Server) GraphInfo(name string) (n, m int, directed bool, epoch int64, err error) {
	ent, err := s.graph(name)
	if err != nil {
		return 0, 0, false, 0, err
	}
	ent.mu.RLock()
	defer ent.mu.RUnlock()
	return ent.g.N(), ent.g.M(), ent.g.Directed, ent.g.Epoch(), nil
}

func (s *Server) graph(name string) (*graphEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", errUnknownGraph, name)
	}
	ent.lastUsed = s.now()
	return ent, nil
}

// EvictJobs drops the oldest terminal job records beyond the retention
// cap and returns how many were evicted. Queued and running jobs are
// always retained, even if that holds the registry over the cap.
func (s *Server) EvictJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictJobsLocked()
}

func (s *Server) evictJobsLocked() int {
	evicted := 0
	if len(s.jobs) <= s.opts.JobRetention {
		return 0
	}
	kept := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		rec, ok := s.jobs[id]
		if !ok {
			continue
		}
		if len(s.jobs)-evicted > s.opts.JobRetention && rec.job.State().Terminal() {
			delete(s.jobs, id)
			evicted++
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
	return evicted
}

// EvictGraphs drops graphs idle longer than Options.GraphTTL and
// returns their names. Graphs with pinned snapshots are skipped — a
// prepared job may still be running against the pin — as is everything
// when GraphTTL is unset.
func (s *Server) EvictGraphs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.GraphTTL <= 0 {
		return nil
	}
	cutoff := s.now().Add(-s.opts.GraphTTL)
	var evicted []string
	for name, ent := range s.graphs {
		if ent.lastUsed.After(cutoff) || ent.g.Pins() > 0 {
			continue
		}
		delete(s.graphs, name)
		evicted = append(evicted, name)
	}
	return evicted
}

// Submit validates spec eagerly (unknown graph / algo / engine /
// resume target fail before anything queues), then submits the job to
// the scheduler and returns its handle. The run function takes the
// graph's read lock only for the prepare phase.
func (s *Server) Submit(spec JobSpec) (*rt.Job, error) {
	ent, err := s.graph(spec.Graph)
	if err != nil {
		return nil, err
	}
	spec = s.withDefaults(spec)
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	resume, err := s.resumeState(spec, ent.reg)
	if err != nil {
		return nil, err
	}
	share := vc.LeaseShare(spec.Engine, spec.Workers)
	ctx := context.Background()
	var timeoutCancel context.CancelFunc
	if spec.TimeoutMS > 0 {
		ctx, timeoutCancel = context.WithTimeout(ctx, time.Duration(spec.TimeoutMS)*time.Millisecond)
	}
	rec := &jobRecord{spec: spec, reg: ent.reg}
	name := spec.Algo + "/" + spec.Engine
	job := s.sched.Submit(ctx, name, share, func(j *rt.Job) error {
		ent.mu.RLock()
		run, err := s.prepareRunner(ent.g, spec, resume, j)
		ent.mu.RUnlock()
		if err != nil {
			return err
		}
		res, err := run()
		if err != nil {
			return err
		}
		rec.mu.Lock()
		rec.res = res
		rec.mu.Unlock()
		return nil
	})
	if timeoutCancel != nil {
		job.OnCleanup(timeoutCancel)
	}
	rec.job = job
	s.mu.Lock()
	s.jobs[job.ID()] = rec
	s.jobOrder = append(s.jobOrder, job.ID())
	s.evictJobsLocked()
	s.mu.Unlock()
	return job, nil
}

// resumeState resolves spec.Resume into a copy of the prior job's
// Prior: the prior job must have succeeded on the same registration of
// the same graph with the same algorithm and parameters. CC and SSSP,
// the two algorithms with an inc row, resume from any engine's
// converged values (unique fixpoints).
func (s *Server) resumeState(spec JobSpec, reg int64) (*vc.Prior, error) {
	if spec.Resume == 0 {
		return nil, nil
	}
	rec, err := s.JobRecord(spec.Resume)
	if err != nil {
		return nil, err
	}
	res := rec.result()
	if res == nil {
		return nil, fmt.Errorf("service: resume job %d has no result (state %s)", spec.Resume, rec.job.State())
	}
	p := rec.spec
	if p.Graph != spec.Graph || p.Algo != spec.Algo {
		return nil, fmt.Errorf("service: resume job %d ran %s on graph %q, want %s on %q",
			spec.Resume, p.Algo, p.Graph, spec.Algo, spec.Graph)
	}
	if rec.reg != reg {
		return nil, fmt.Errorf("service: resume job %d ran on an earlier registration of graph %q", spec.Resume, spec.Graph)
	}
	if spec.Algo == "sssp" && p.Src != spec.Src {
		return nil, fmt.Errorf("service: resume job %d used source %d, want %d", spec.Resume, p.Src, spec.Src)
	}
	prior := res.prior
	return &prior, nil
}

// JobRecord returns the record for a submitted job ID.
func (s *Server) JobRecord(id int64) (*jobRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w %d", errUnknownJob, id)
	}
	return rec, nil
}

// Cancel cancels a submitted job (queued or running).
func (s *Server) Cancel(id int64) error {
	rec, err := s.JobRecord(id)
	if err != nil {
		return err
	}
	rec.job.Cancel(nil)
	return nil
}

func parseEdge(e []float64, n int) (u, v graph.VertexID, w float64, err error) {
	if len(e) != 2 && len(e) != 3 {
		return 0, 0, 0, fmt.Errorf("service: edge %v: want [u, v] or [u, v, w]", e)
	}
	w = 1
	if len(e) == 3 {
		w = e[2]
	}
	ui, vi := int(e[0]), int(e[1])
	if float64(ui) != e[0] || float64(vi) != e[1] || ui < 0 || vi < 0 || ui >= n || vi >= n {
		return 0, 0, 0, fmt.Errorf("service: edge %v: endpoints must be integers in [0, %d)", e, n)
	}
	return graph.VertexID(ui), graph.VertexID(vi), w, nil
}

func buildGraph(spec GraphSpec) (*graph.Graph, error) {
	var g *graph.Graph
	switch spec.Gen {
	case "":
		if spec.N <= 0 {
			return nil, errors.New("service: explicit graphs need n > 0")
		}
		g = graph.New(spec.N, spec.Directed)
		for _, e := range spec.Edges {
			u, v, w, err := parseEdge(e, spec.N)
			if err != nil {
				return nil, err
			}
			g.AddWeightedEdge(u, v, w)
		}
	case "random":
		g = graph.Random(spec.N, spec.M, spec.Seed)
	case "connected":
		g = graph.RandomConnected(spec.N, spec.M, spec.Seed)
	case "powerlaw":
		g = graph.PreferentialAttachment(spec.N, spec.M, spec.Seed)
	case "path":
		g = graph.Path(spec.N)
	case "cycle":
		g = graph.Cycle(spec.N)
	case "grid":
		g = graph.Grid(spec.N, spec.N)
	case "star":
		g = graph.Star(spec.N)
	case "tree":
		g = graph.RandomTree(spec.N, spec.Seed)
	case "directed":
		g = graph.RandomDirected(spec.N, spec.M, spec.Seed)
	default:
		return nil, fmt.Errorf("service: unknown generator %q", spec.Gen)
	}
	if spec.Weights {
		graph.RandomWeights(g, spec.Seed+1)
	}
	return g, nil
}
