package graph

import (
	"slices"
	"sync"
)

// CSR is an immutable compressed-sparse-row snapshot of a Graph: the
// flat adjacency layout every engine's hot loop iterates instead of the
// mutable [][]Edge builder. Where an Edge costs 16 bytes per adjacency
// entry (a label id and a weight even on unlabeled, unweighted graphs)
// and a pointer dereference per vertex, the snapshot packs destinations
// into one contiguous []VertexID (4 bytes per entry) with side arrays
// for weights and label ids that are simply absent (nil) when the
// graph is unweighted or unlabeled.
//
// Layout:
//
//	Offsets  [n+1]int32   — out-adjacency of v is the index range
//	                        [Offsets[v], Offsets[v+1])
//	Dsts     [e]VertexID  — destination of each entry, builder order
//	Weights  [e]float64   — nil when every weight is 1
//	LabelIDs [e]int32     — nil when every label is ""; indexes Labels
//	Labels   [k]string    — the graph's edge-label table (Labels[0] == ""),
//	                        shared, so LabelIDs are the graph's Edge.L ids
//
// The transpose (in-CSR) shares the same shape (reached through the In
// accessors) and is built on demand by EnsureIn with an O(m)
// counting sort — never a comparison sort. For undirected graphs the
// transpose aliases the out arrays (in-adjacency == out-adjacency).
//
// A CSR is immutable after construction: engines may share one snapshot
// across concurrent runs. Obtain the per-graph cached snapshot with
// Graph.CSR.
type CSR struct {
	Directed bool

	Offsets  []int32
	Dsts     []VertexID // nil when destinations are packed (see packed)
	Weights  []float64
	LabelIDs []int32
	Labels   []string

	// packed, when non-nil, replaces Dsts with the varint-delta block
	// representation (codec.go): Offsets/Weights/LabelIDs keep their
	// flat layout and flat indices, only the destination array is
	// compressed. Built by BuildPackedCSR or CompressCSR; read through
	// the same accessors as the flat form (Out allocates per call on a
	// packed snapshot — hot loops use OutSpan/ForEachOut instead).
	packed *packedEdges

	numEdges int

	// Transpose, nil until EnsureIn (aliases the out arrays for
	// undirected graphs); reached through the In accessors. inSrcs is
	// ordered by source ascending within each vertex's span, matching
	// Graph.EnsureIn's iteration order. inOnce makes the lazy build
	// safe when concurrent jobs share one pinned snapshot. When the out
	// side is packed the transpose is packed too (inPacked replaces
	// inSrcs).
	inOnce     sync.Once
	inOffsets  []int32
	inSrcs     []VertexID
	inWeights  []float64
	inLabelIDs []int32
	inPacked   *packedEdges
}

// Packed reports whether the snapshot's destination arrays are
// varint-delta compressed.
func (c *CSR) Packed() bool { return c.packed != nil }

// EdgeBytes returns the retained size in bytes of the snapshot's edge
// arrays (offsets + destinations, plus the transpose if built; weights
// and labels excluded — they are identical across representations).
// The honest numerator of the edges-per-GB headline.
func (c *CSR) EdgeBytes() int {
	total := 4 * len(c.Offsets)
	if c.packed != nil {
		total += c.packed.sizeBytes()
	} else {
		total += 4 * len(c.Dsts)
	}
	if c.Directed && c.inOffsets != nil {
		total += 4 * len(c.inOffsets)
		if c.inPacked != nil {
			total += c.inPacked.sizeBytes()
		} else {
			total += 4 * len(c.inSrcs)
		}
	}
	return total
}

// BuildCSR builds a CSR snapshot of g. Adjacency order is preserved
// exactly (entry i of g.Out[v] becomes entry Offsets[v]+i), so engines
// that migrate from [][]Edge iteration to CSR spans keep byte-identical
// message and float-summation order. Prefer Graph.CSR, which caches the
// snapshot on the graph and rebuilds it only after mutations.
func BuildCSR(g *Graph) *CSR {
	n := g.N()
	c := &CSR{
		Directed: g.Directed,
		Offsets:  make([]int32, n+1),
		numEdges: g.M(),
	}
	total := 0
	hasW, hasL := false, false
	for v := 0; v < n; v++ {
		total += len(g.Out[v])
		c.Offsets[v+1] = int32(total)
		for i := range g.Out[v] {
			e := &g.Out[v][i]
			if e.W != 1 {
				hasW = true
			}
			if e.L != 0 {
				hasL = true
			}
		}
	}
	c.Dsts = make([]VertexID, total)
	if hasW {
		c.Weights = make([]float64, total)
	}
	if hasL {
		c.LabelIDs = make([]int32, total)
		c.Labels = slices.Clip(g.edgeLabels)
	}
	idx := 0
	for v := 0; v < n; v++ {
		for i := range g.Out[v] {
			e := &g.Out[v][i]
			c.Dsts[idx] = e.Dst
			if hasW {
				c.Weights[idx] = e.W
			}
			if hasL {
				c.LabelIDs[idx] = e.L
			}
			idx++
		}
	}
	return c
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.Offsets) - 1 }

// M returns the number of edges (undirected edges counted once,
// matching Graph.M).
func (c *CSR) M() int { return c.numEdges }

// NumEntries returns the number of adjacency entries (directed edges,
// or 2·M minus self-loops for undirected graphs).
func (c *CSR) NumEntries() int {
	if c.packed != nil {
		return int(c.packed.n)
	}
	return len(c.Dsts)
}

// OutDegree returns the out-degree of v.
func (c *CSR) OutDegree(v VertexID) int { return int(c.Offsets[v+1] - c.Offsets[v]) }

// Out returns v's out-neighbor span in adjacency order. On a flat
// snapshot the slice aliases the snapshot and must not be modified; on
// a packed snapshot every call decodes into a fresh allocation, so hot
// loops over packed snapshots use OutSpan or ForEachOut instead.
func (c *CSR) Out(v VertexID) []VertexID {
	lo, hi := c.Offsets[v], c.Offsets[v+1]
	if c.packed == nil {
		return c.Dsts[lo:hi]
	}
	if lo == hi {
		return nil
	}
	return c.packed.appendRange(make([]VertexID, 0, hi-lo), lo, hi)
}

// DstAt returns the destination of the adjacency entry at flat index i.
// O(1) on flat snapshots; O(edgeBlockLen) on packed ones — for cold
// flat-index paths (the mutation overlay), not hot loops.
func (c *CSR) DstAt(i int32) VertexID {
	if c.packed == nil {
		return c.Dsts[i]
	}
	return c.packed.at(i)
}

// OutWeights returns v's out-edge weight span, aligned with Out(v), or
// nil when the graph is unweighted (every weight 1).
func (c *CSR) OutWeights(v VertexID) []float64 {
	if c.Weights == nil {
		return nil
	}
	return c.Weights[c.Offsets[v]:c.Offsets[v+1]]
}

// OutRange returns the [lo, hi) index range of v's out-entries in
// Dsts/Weights/LabelIDs, for callers indexing the flat arrays directly.
func (c *CSR) OutRange(v VertexID) (lo, hi int32) { return c.Offsets[v], c.Offsets[v+1] }

// Weight returns the weight of the adjacency entry at flat index i.
func (c *CSR) Weight(i int32) float64 {
	if c.Weights == nil {
		return 1
	}
	return c.Weights[i]
}

// EdgeLabel returns the label of the adjacency entry at flat index i.
func (c *CSR) EdgeLabel(i int32) string {
	if c.LabelIDs == nil {
		return ""
	}
	return c.Labels[c.LabelIDs[i]]
}

// ForEachOut calls f for every out-edge of v in adjacency order,
// without allocating: the allocation-free replacement for iterating
// Graph.Out[v] or copying Neighbors.
func (c *CSR) ForEachOut(v VertexID, f func(dst VertexID, w float64)) {
	lo, hi := c.Offsets[v], c.Offsets[v+1]
	if c.packed != nil {
		if c.Weights == nil {
			c.packed.forEachRange(lo, hi, func(_ int32, d VertexID) { f(d, 1) })
		} else {
			c.packed.forEachRange(lo, hi, func(i int32, d VertexID) { f(d, c.Weights[i]) })
		}
		return
	}
	if c.Weights == nil {
		for _, d := range c.Dsts[lo:hi] {
			f(d, 1)
		}
		return
	}
	for i := lo; i < hi; i++ {
		f(c.Dsts[i], c.Weights[i])
	}
}

// forEachOutIdx calls f(i, dst) for every out-entry of v with its flat
// index, decoding packed blocks into a stack buffer. The flat-index
// iterator behind the mutation overlay's tombstone walk.
func (c *CSR) forEachOutIdx(v VertexID, f func(i int32, dst VertexID)) {
	lo, hi := c.Offsets[v], c.Offsets[v+1]
	if c.packed != nil {
		c.packed.forEachRange(lo, hi, f)
		return
	}
	for i := lo; i < hi; i++ {
		f(i, c.Dsts[i])
	}
}

// AppendOutEdges appends v's out-adjacency to buf as Edge values
// (materializing weights and label ids) and returns the extended
// slice. Cold paths that still want []Edge use this; hot paths iterate
// the spans directly.
func (c *CSR) AppendOutEdges(buf []Edge, v VertexID) []Edge {
	c.forEachOutIdx(v, func(i int32, d VertexID) {
		e := Edge{Dst: d, W: c.Weight(i)}
		if c.LabelIDs != nil {
			e.L = c.LabelIDs[i]
		}
		buf = append(buf, e)
	})
	return buf
}

// EnsureIn builds the transpose (in-CSR) with an O(n+m) counting sort:
// in-degrees are histogrammed into offsets, then one pass over the
// out-entries in source order scatters each entry into its slot — so
// every vertex's in-span is ordered by source ascending, matching the
// order Graph.EnsureIn produces. For undirected graphs the transpose
// aliases the out arrays. EnsureIn is idempotent and safe to call from
// concurrent jobs sharing one pinned snapshot; the In accessors are
// safe once the caller's EnsureIn has returned.
func (c *CSR) EnsureIn() { c.inOnce.Do(c.buildIn) }

func (c *CSR) buildIn() {
	if !c.Directed {
		c.inOffsets = c.Offsets
		c.inSrcs = c.Dsts
		c.inWeights = c.Weights
		c.inLabelIDs = c.LabelIDs
		c.inPacked = c.packed
		return
	}
	n := c.N()
	entries := c.NumEntries()
	off := make([]int32, n+1)
	eachDst := func(f func(i int32, d VertexID)) {
		if c.packed != nil {
			c.packed.forEachRange(0, int32(entries), f)
			return
		}
		for i, d := range c.Dsts {
			f(int32(i), d)
		}
	}
	eachDst(func(_ int32, d VertexID) { off[d+1]++ })
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	srcs := make([]VertexID, entries)
	var ws []float64
	if c.Weights != nil {
		ws = make([]float64, len(c.Weights))
	}
	var ls []int32
	if c.LabelIDs != nil {
		ls = make([]int32, len(c.LabelIDs))
	}
	pos := make([]int32, n)
	copy(pos, off[:n])
	for u := 0; u < n; u++ {
		uu := VertexID(u)
		c.forEachOutIdx(uu, func(i int32, d VertexID) {
			p := pos[d]
			pos[d] = p + 1
			srcs[p] = uu
			if ws != nil {
				ws[p] = c.Weights[i]
			}
			if ls != nil {
				ls[p] = c.LabelIDs[i]
			}
		})
	}
	c.inOffsets = off
	if c.packed != nil {
		// Mirror the out side: a packed snapshot packs its transpose
		// too (in-spans are sorted by source ascending, so they
		// compress even better than builder-order out-spans).
		c.inPacked = packEdges(srcs)
	} else {
		c.inSrcs = srcs
	}
	c.inWeights = ws
	c.inLabelIDs = ls
}

// InDegree returns the in-degree of v (the degree, for undirected
// graphs). EnsureIn must have been called for directed graphs.
func (c *CSR) InDegree(v VertexID) int {
	if !c.Directed {
		return c.OutDegree(v)
	}
	if c.inOffsets == nil {
		panic("graph: CSR.InDegree on directed graph before EnsureIn")
	}
	return int(c.inOffsets[v+1] - c.inOffsets[v])
}

// TotalDegree returns d(v) for undirected graphs and d_in(v)+d_out(v)
// for directed graphs, building the transpose if needed.
func (c *CSR) TotalDegree(v VertexID) int {
	if !c.Directed {
		return c.OutDegree(v)
	}
	c.EnsureIn()
	return c.OutDegree(v) + c.InDegree(v)
}

// In returns v's in-neighbor (source) span, ordered by source
// ascending. EnsureIn must have been called for directed graphs; for
// undirected graphs it returns Out(v). On a packed snapshot every call
// decodes into a fresh allocation (see Out); hot loops use InSpan or
// ForEachIn.
func (c *CSR) In(v VertexID) []VertexID {
	if !c.Directed {
		return c.Out(v)
	}
	lo, hi := c.inOffsets[v], c.inOffsets[v+1]
	if c.inPacked == nil {
		return c.inSrcs[lo:hi]
	}
	if lo == hi {
		return nil
	}
	return c.inPacked.appendRange(make([]VertexID, 0, hi-lo), lo, hi)
}

// InSrcAt returns the source of the transpose entry at flat index i
// (see DstAt for the cost model). EnsureIn must have been called.
func (c *CSR) InSrcAt(i int32) VertexID {
	if c.inPacked == nil {
		return c.inSrcs[i]
	}
	return c.inPacked.at(i)
}

// forEachInIdx calls f(i, src) for every in-entry of v with its flat
// transpose index. EnsureIn must have been called for directed graphs.
func (c *CSR) forEachInIdx(v VertexID, f func(i int32, src VertexID)) {
	if !c.Directed {
		c.forEachOutIdx(v, f)
		return
	}
	lo, hi := c.inOffsets[v], c.inOffsets[v+1]
	if c.inPacked != nil {
		c.inPacked.forEachRange(lo, hi, f)
		return
	}
	for i := lo; i < hi; i++ {
		f(i, c.inSrcs[i])
	}
}

// InWeights returns v's in-edge weight span aligned with In(v), or nil
// when the graph is unweighted.
func (c *CSR) InWeights(v VertexID) []float64 {
	if !c.Directed {
		return c.OutWeights(v)
	}
	if c.inWeights == nil {
		return nil
	}
	return c.inWeights[c.inOffsets[v]:c.inOffsets[v+1]]
}

// ForEachIn calls f for every in-edge (src -> v) without allocating.
// EnsureIn must have been called for directed graphs.
func (c *CSR) ForEachIn(v VertexID, f func(src VertexID, w float64)) {
	if !c.Directed {
		c.ForEachOut(v, f)
		return
	}
	lo, hi := c.inOffsets[v], c.inOffsets[v+1]
	if c.inPacked != nil {
		if c.inWeights == nil {
			c.inPacked.forEachRange(lo, hi, func(_ int32, s VertexID) { f(s, 1) })
		} else {
			c.inPacked.forEachRange(lo, hi, func(i int32, s VertexID) { f(s, c.inWeights[i]) })
		}
		return
	}
	if c.inWeights == nil {
		for _, s := range c.inSrcs[lo:hi] {
			f(s, 1)
		}
		return
	}
	for i := lo; i < hi; i++ {
		f(c.inSrcs[i], c.inWeights[i])
	}
}

// AppendInEdges appends v's in-adjacency to buf as Edge values with
// Dst holding the *source* vertex (mirroring Graph.In's convention) and
// returns the extended slice. EnsureIn must have been called for
// directed graphs.
func (c *CSR) AppendInEdges(buf []Edge, v VertexID) []Edge {
	if !c.Directed {
		return c.AppendOutEdges(buf, v)
	}
	c.forEachInIdx(v, func(i int32, s VertexID) {
		e := Edge{Dst: s, W: 1}
		if c.inWeights != nil {
			e.W = c.inWeights[i]
		}
		if c.inLabelIDs != nil {
			e.L = c.inLabelIDs[i]
		}
		buf = append(buf, e)
	})
	return buf
}
