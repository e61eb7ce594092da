// Package graph provides the graph substrate used throughout the
// repository: compact adjacency-list graphs (directed or undirected,
// optionally weighted and vertex/edge labeled), deterministic random
// generators, and structural helpers.
//
// Vertices are dense integer IDs in [0, N). Undirected graphs store each
// edge in both endpoint adjacency lists; the Edges method deduplicates.
package graph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
)

// VertexID identifies a vertex. IDs are dense: 0..N()-1.
type VertexID int32

// NoVertex is a sentinel for "no vertex" (absent parent, unmatched, ...).
const NoVertex VertexID = -1

// Edge is one directed adjacency entry: a half-edge from an implicit
// source to Dst with weight W and label L. L is an id into the graph's
// edge-label table (Graph.EdgeLabel reads the string), 0 for "", so an
// Edge is 16 bytes on 64- and 32-bit targets alike.
type Edge struct {
	Dst VertexID
	L   int32
	W   float64
}

// Graph is an adjacency-list graph. Out holds out-adjacency; for
// directed graphs In holds in-adjacency (built lazily by EnsureIn).
// Undirected graphs store both directions in Out and leave In nil.
type Graph struct {
	Directed bool
	Out      [][]Edge
	In       [][]Edge // directed only; nil until EnsureIn
	Labels   []string // optional vertex labels; nil if unlabeled
	numEdges int

	// edgeLabels is the edge-label table Edge.L indexes, in first-add
	// order with edgeLabels[0] == ""; nil until the first labeled edge.
	// Snapshots share it, so a graph and its CSR use one id space.
	// labelIDs inverts it.
	edgeLabels []string
	labelIDs   map[string]int32

	// CSR snapshot cache and pin table: csr is valid while
	// csrVersion == version. Every mutation through the Graph API bumps
	// version; code that rewrites adjacency slices directly must call
	// Invalidate. Pinned snapshots (Pin/Unpin) outlive invalidation —
	// a writer mutating and republishing never disturbs a running
	// job's pinned view; pins counts them for leak checks.
	//
	// mu guards the snapshot bookkeeping (version, csr, pins) so
	// Pin/Unpin/CSR/Invalidate are safe to call concurrently. The
	// adjacency slices themselves are NOT guarded: mutators
	// (AddEdge & co.) must still be serialized against each other and
	// against snapshot builds by the caller — the serving layer does so
	// with a per-graph write lock held across mutate-and-republish.
	mu         sync.Mutex
	version    int64
	csrVersion int64
	csr        *CSR
	pins       map[*CSR]int

	// Evolving-graph state (mutate.go / delta.go): the epoch counts
	// applied mutation batches, log retains recent batches for
	// MutationsSince, and the delta overlay tracks changes against
	// deltaBase so PinDelta can serve readers without a full CSR
	// rebuild. All of it is guarded by mu; out-of-band mutations
	// (anything that calls Invalidate) discard the overlay and the log.
	epoch            int64
	log              []mutationBatch
	delta            *deltaOverlay
	deltaBase        *CSR
	deltaView        *DeltaCSR
	deltaViewVersion int64
	mutsSinceRebuild int

	// RebuildEvery is the amortization knob for the delta overlay: after
	// this many mutations since the last full CSR build, ApplyMutations
	// rebuilds and re-bases the overlay. 0 means DefaultRebuildEvery.
	RebuildEvery int

	// Encoding selects the snapshot representation csrLocked builds:
	// EncodeInt32 (the default) keeps flat 4-byte destination arrays,
	// EncodePacked varint-delta compresses them (codec.go). Set it
	// before the first snapshot build (or call Invalidate after); every
	// subsequent generation — including delta-overlay rebases — uses
	// the chosen representation. Both representations enumerate
	// adjacency in identical order, so runs are byte-identical.
	Encoding EdgeEncoding

	// adopted, when non-nil, pins the graph to an externally built
	// immutable snapshot (an mmap-backed .vcsr file, see OpenCSRFile):
	// snapshot reads delegate to it and mutation is forbidden — there
	// is no adjacency-list builder to mutate. closer releases the
	// backing resource (the mmap), installed by OpenCSRFile.
	adopted *CSR
	closer  func() error
}

// EdgeEncoding selects a CSR destination-array representation.
type EdgeEncoding uint8

const (
	// EncodeInt32 stores destinations as flat 4-byte entries.
	EncodeInt32 EdgeEncoding = iota
	// EncodePacked stores destinations as varint-delta blocks: ~2-4x
	// more edges per GB on sorted adjacency, identical enumeration.
	EncodePacked
)

// AdoptCSR wraps an externally built immutable snapshot (typically
// mmap-backed, see OpenCSRFile) as a read-only Graph: N/M/Degree and
// the snapshot accessors delegate to the adopted CSR, and any mutation
// attempt panics. Out remains a slice of n nil adjacency lists so code
// that merely measures lengths sees a consistent (empty) builder view;
// algorithms must go through CSR spans, which every engine hot path
// does.
func AdoptCSR(c *CSR) *Graph {
	return &Graph{
		Directed:   c.Directed,
		Out:        make([][]Edge, c.N()),
		numEdges:   c.M(),
		edgeLabels: c.Labels,
		adopted:    c,
	}
}

// Adopted reports whether the graph is an immutable wrapper around an
// externally built snapshot.
func (g *Graph) Adopted() bool { return g.adopted != nil }

// Close releases the resource backing an adopted graph (the mmap of a
// .vcsr file). A no-op for ordinary graphs; safe to call twice. The
// adopted snapshot must not be read after Close.
func (g *Graph) Close() error {
	c := g.closer
	g.closer = nil
	if c == nil {
		return nil
	}
	return c()
}

// New returns an empty graph with n vertices.
func New(n int, directed bool) *Graph {
	return &Graph{Directed: directed, Out: make([][]Edge, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.Out) }

// M returns the number of edges (undirected edges counted once).
func (g *Graph) M() int { return g.numEdges }

// Label returns the label of v, or "" if the graph is unlabeled.
func (g *Graph) Label(v VertexID) string {
	if g.Labels == nil {
		return ""
	}
	return g.Labels[v]
}

// EdgeLabel returns the label string of e, an entry of this graph's
// adjacency lists or of its snapshot's AppendOutEdges/AppendInEdges.
func (g *Graph) EdgeLabel(e Edge) string {
	if e.L == 0 {
		return ""
	}
	return g.edgeLabels[e.L]
}

// internLabel returns l's id in the edge-label table, adding it if new.
func (g *Graph) internLabel(l string) int32 {
	if l == "" {
		return 0
	}
	if g.labelIDs == nil {
		g.edgeLabels, g.labelIDs = []string{""}, map[string]int32{"": 0}
	}
	id, ok := g.labelIDs[l]
	if !ok {
		id = int32(len(g.edgeLabels))
		g.edgeLabels = append(g.edgeLabels, l)
		g.labelIDs[l] = id
	}
	return id
}

// AddEdge adds an edge u->v (and v->u when undirected) with weight 1.
func (g *Graph) AddEdge(u, v VertexID) { g.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge adds an edge u->v (and v->u when undirected) with
// weight w.
func (g *Graph) AddWeightedEdge(u, v VertexID, w float64) {
	g.AddLabeledEdge(u, v, w, "")
}

// AddLabeledEdge adds an edge u->v (and v->u when undirected) with
// weight w and label l. Both endpoints must be in [0, N): an
// out-of-range source used to panic deep inside append and an
// out-of-range destination was silently accepted until Validate, so the
// boundary is checked here.
func (g *Graph) AddLabeledEdge(u, v VertexID, w float64, l string) {
	if g.adopted != nil {
		panic("graph: mutation of an adopted (mmap-backed) graph")
	}
	if n := VertexID(g.N()); u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("graph: AddLabeledEdge(%d, %d): vertex out of range [0,%d)", u, v, n))
	}
	g.Invalidate()
	id := g.internLabel(l)
	g.Out[u] = append(g.Out[u], Edge{Dst: v, L: id, W: w})
	if !g.Directed {
		if u != v {
			g.Out[v] = append(g.Out[v], Edge{Dst: u, L: id, W: w})
		}
	} else if g.In != nil {
		g.In[v] = append(g.In[v], Edge{Dst: u, L: id, W: w})
	}
	g.numEdges++
}

// Degree returns the out-degree of v (for undirected graphs, the
// degree).
func (g *Graph) Degree(v VertexID) int {
	if g.adopted != nil {
		return g.adopted.OutDegree(v)
	}
	return len(g.Out[v])
}

// InDegree returns the in-degree of v. For undirected graphs it equals
// Degree. For directed graphs, EnsureIn must have been called.
func (g *Graph) InDegree(v VertexID) int {
	if g.adopted != nil {
		return g.adopted.InDegree(v)
	}
	if !g.Directed {
		return len(g.Out[v])
	}
	if g.In == nil {
		panic("graph: InDegree on directed graph before EnsureIn")
	}
	return len(g.In[v])
}

// TotalDegree returns d(v) for undirected graphs and
// d_in(v)+d_out(v) for directed graphs (with In built).
func (g *Graph) TotalDegree(v VertexID) int {
	if g.adopted != nil {
		return g.adopted.TotalDegree(v)
	}
	if !g.Directed {
		return len(g.Out[v])
	}
	return len(g.Out[v]) + g.InDegree(v)
}

// Neighbors returns the out-neighbor IDs of v in adjacency order.
//
// Each call allocates a fresh slice, so Neighbors is for tests, cold
// paths, and callers that retain the result. Hot loops should iterate
// CSR().Out(v) (an alias into the snapshot, allocation-free) or use
// CSR().ForEachOut instead.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	if g.adopted != nil {
		return g.adopted.Out(v)
	}
	out := make([]VertexID, len(g.Out[v]))
	for i, e := range g.Out[v] {
		out[i] = e.Dst
	}
	return out
}

// EnsureIn builds the in-adjacency lists of a directed graph, each
// ordered by source in Out order. It is a no-op for undirected graphs
// or if already built. The rows are capacity-capped windows of one
// exact-size buffer, so a later append to one row reallocates it.
func (g *Graph) EnsureIn() {
	if g.adopted != nil {
		g.adopted.EnsureIn()
		return
	}
	if !g.Directed || g.In != nil {
		return
	}
	at := make([]int, g.N()+1)
	for u := range g.Out {
		for _, e := range g.Out[u] {
			at[e.Dst+1]++
		}
	}
	for v := 1; v < len(at); v++ {
		at[v] += at[v-1]
	}
	buf := make([]Edge, at[len(at)-1])
	in := make([][]Edge, g.N())
	for v := range in {
		if at[v] < at[v+1] {
			in[v] = buf[at[v]:at[v]:at[v+1]]
		}
	}
	for u := range g.Out {
		for _, e := range g.Out[u] {
			in[e.Dst] = append(in[e.Dst], Edge{Dst: VertexID(u), L: e.L, W: e.W})
		}
	}
	g.In = in
}

// CSR returns the cached immutable CSR snapshot of the graph, building
// it on first use and rebuilding after mutations made through the Graph
// API. The snapshot preserves adjacency order exactly, so iterating its
// spans is interchangeable with iterating Out.
func (g *Graph) CSR() *CSR {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.csrLocked()
}

func (g *Graph) csrLocked() *CSR {
	if g.adopted != nil {
		return g.adopted
	}
	if g.csr == nil || g.csrVersion != g.version {
		g.csr = g.buildSnapshotLocked()
		g.csrVersion = g.version
		// A fresh full build is also a fresh overlay base: re-basing
		// here keeps delta spans no longer than mutations-since-last-
		// snapshot, so a graph that is pinned between batches pays
		// near-zero overlay cost.
		if g.delta != nil {
			g.rebaseLocked(g.csr)
		}
	}
	return g.csr
}

// buildSnapshotLocked builds a fresh snapshot in the representation the
// Encoding knob selects. Every snapshot build — cache refresh, delta
// rebase, RebuildEvery amortized rebuild — goes through here, so a
// packed graph never silently republishes a flat generation.
func (g *Graph) buildSnapshotLocked() *CSR {
	if g.Encoding == EncodePacked {
		return BuildPackedCSR(g)
	}
	return BuildCSR(g)
}

// Pin returns the current CSR snapshot with a reference held on it:
// the snapshot stays consistent (it is immutable) no matter how the
// graph is mutated and republished afterwards. Every Pin must be paired
// with an Unpin of the same snapshot; Pins reports the outstanding
// count so tests and the serving layer can verify that finished jobs
// released their views.
func (g *Graph) Pin() *CSR {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.csrLocked()
	if g.pins == nil {
		g.pins = make(map[*CSR]int)
	}
	g.pins[c]++
	return c
}

// PinSnapshot takes an additional reference on an already-pinned
// snapshot, so a caller that sampled a generation (the adaptive plan
// layer) can hand that same generation to an engine prepare even while
// writers mutate and republish the graph in between. It panics if c is not currently pinned — the caller must
// hold its own Pin for the duration.
func (g *Graph) PinSnapshot(c *CSR) *CSR {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pins[c] == 0 {
		panic("graph: PinSnapshot of a snapshot that is not pinned")
	}
	g.pins[c]++
	return c
}

// Unpin releases one reference on a snapshot returned by Pin.
func (g *Graph) Unpin(c *CSR) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pins[c] == 0 {
		panic("graph: Unpin of a snapshot that is not pinned")
	}
	if g.pins[c]--; g.pins[c] == 0 {
		delete(g.pins, c)
	}
}

// Pins returns the total number of outstanding pinned references
// across all snapshot generations.
func (g *Graph) Pins() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	total := 0
	for _, n := range g.pins {
		total += n
	}
	return total
}

// Invalidate discards the cached CSR snapshot (pinned references keep
// their generation alive and untouched). Mutators in this package call
// it automatically; call it manually after rewriting Out/Labels slices
// directly.
//
// Invalidate also marks an out-of-band mutation for the evolving-graph
// machinery: the epoch advances with no batch recorded, the retained
// mutation log is discarded (MutationsSince for older epochs reports
// !ok, forcing incremental consumers to cold-start), and the delta
// overlay is dropped so PinDelta re-bases on a fresh full build.
func (g *Graph) Invalidate() {
	if g.adopted != nil {
		panic("graph: mutation of an adopted (mmap-backed) graph")
	}
	g.mu.Lock()
	g.version++
	g.csr = nil
	g.epoch++
	g.log = nil
	g.delta = nil
	g.deltaBase = nil
	g.deltaView = nil
	g.mu.Unlock()
}

// SortAdjacency sorts every adjacency list by destination ID. Several
// algorithms (Euler tour, deterministic traversals) assume sorted
// adjacency.
func (g *Graph) SortAdjacency() {
	g.Invalidate()
	for v := range g.Out {
		sort.Slice(g.Out[v], func(i, j int) bool { return g.Out[v][i].Dst < g.Out[v][j].Dst })
	}
	if g.In != nil {
		for v := range g.In {
			sort.Slice(g.In[v], func(i, j int) bool { return g.In[v][i].Dst < g.In[v][j].Dst })
		}
	}
}

// UndirectedEdge is a canonical undirected edge with U <= V.
type UndirectedEdge struct {
	U, V VertexID
	W    float64
}

// UndirectedEdges returns each undirected edge once, sorted by (U, V).
// Self-loops are returned once. Panics on directed graphs.
func (g *Graph) UndirectedEdges() []UndirectedEdge {
	if g.Directed {
		panic("graph: UndirectedEdges on directed graph")
	}
	var out []UndirectedEdge
	for u := range g.Out {
		for _, e := range g.Out[u] {
			if VertexID(u) <= e.Dst {
				out = append(out, UndirectedEdge{U: VertexID(u), V: e.Dst, W: e.W})
			}
		}
	}
	sortUndirected(out)
	return out
}

// sortUndirected sorts canonical edges by (U, V).
func sortUndirected(es []UndirectedEdge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
}

// Underlying returns the undirected graph obtained by forgetting edge
// directions (parallel edges between a pair collapse to one, keeping the
// smaller weight; self-loops dropped). For undirected graphs it returns
// the receiver.
func (g *Graph) Underlying() *Graph {
	if !g.Directed {
		return g
	}
	u := New(g.N(), false)
	seen := make(map[[2]VertexID]float64)
	for a := range g.Out {
		for _, e := range g.Out[a] {
			x, y := VertexID(a), e.Dst
			if x == y {
				continue
			}
			if x > y {
				x, y = y, x
			}
			k := [2]VertexID{x, y}
			if w, ok := seen[k]; !ok || e.W < w {
				seen[k] = e.W
			}
		}
	}
	keys := make([][2]VertexID, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		u.AddWeightedEdge(k[0], k[1], seen[k])
	}
	return u
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{Directed: g.Directed, numEdges: g.numEdges}
	c.Out = make([][]Edge, len(g.Out))
	for v := range g.Out {
		c.Out[v] = append([]Edge(nil), g.Out[v]...)
	}
	if g.In != nil {
		c.In = make([][]Edge, len(g.In))
		for v := range g.In {
			c.In[v] = append([]Edge(nil), g.In[v]...)
		}
	}
	if g.Labels != nil {
		c.Labels = append([]string(nil), g.Labels...)
	}
	c.edgeLabels, c.labelIDs = slices.Clip(g.edgeLabels), maps.Clone(g.labelIDs)
	return c
}

// Validate checks structural invariants and returns an error describing
// the first violation: destination IDs and edge-label ids in range,
// undirected symmetry, and label slice length.
func (g *Graph) Validate() error {
	n := VertexID(g.N())
	k := int32(max(len(g.edgeLabels), 1))
	for u := range g.Out {
		for _, e := range g.Out[u] {
			if e.Dst < 0 || e.Dst >= n {
				return fmt.Errorf("graph: vertex %d has out-edge to %d, out of range [0,%d)", u, e.Dst, n)
			}
			if e.L < 0 || e.L >= k {
				return fmt.Errorf("graph: vertex %d has out-edge with label id %d, out of range [0,%d)", u, e.L, k)
			}
		}
	}
	if g.Labels != nil && len(g.Labels) != g.N() {
		return fmt.Errorf("graph: %d labels for %d vertices", len(g.Labels), g.N())
	}
	if !g.Directed {
		type key struct {
			u, v VertexID
		}
		cnt := make(map[key]int)
		for u := range g.Out {
			for _, e := range g.Out[u] {
				cnt[key{VertexID(u), e.Dst}]++
			}
		}
		for k, c := range cnt {
			if k.u == k.v {
				continue
			}
			if cnt[key{k.v, k.u}] != c {
				return fmt.Errorf("graph: asymmetric undirected adjacency between %d and %d", k.u, k.v)
			}
		}
	}
	return nil
}
