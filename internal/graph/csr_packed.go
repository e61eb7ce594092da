package graph

import (
	"slices"
	"unsafe"
)

// Scratch is a worker-local decode buffer for reading adjacency spans
// off a packed snapshot without per-call allocation. Each engine worker
// (or sequential context) owns one; OutSpan and InSpan read through
// separate block caches and buffers, so one out-span and one in-span
// can be live at the same time (the async PageRank update holds both).
// Each cache keeps the last block it decoded, so a worker sweeping its
// vertices in ascending order decodes every block once. A span returned
// from OutSpan/InSpan is valid until the same method is called again on
// the same Scratch, and must never be written to or retained: on a flat
// snapshot it aliases the snapshot itself, on a packed one it may be a
// view of the cache. A DeltaCSR assembles the spans of the vertices its
// overlay touches in the same buffers, and their weight spans in a
// third.
type Scratch struct {
	out []VertexID
	in  []VertexID
	w   []float64
	oc  blockCache // OutSpan's last decoded block
	ic  blockCache // InSpan's last decoded block
}

// Reset empties both block caches, so a cached Scratch keeps no
// snapshot's stream reachable; the grown buffers stay.
func (s *Scratch) Reset() { s.oc.p, s.ic.p = nil, nil }

// Bytes reports the memory s holds: its block caches and the capacity
// of its grown buffers.
func (s *Scratch) Bytes() int64 {
	return int64(unsafe.Sizeof(*s)) + 4*int64(cap(s.out)+cap(s.in)) + 8*int64(cap(s.w))
}

// OutSpan returns v's out-neighbor span in adjacency order. On a flat
// snapshot it aliases the snapshot (identical to Out, zero cost and s
// may be nil); on a packed snapshot it reads through s's out cache —
// allocation-free once the out buffer has grown to the graph's max
// degree.
func (c *CSR) OutSpan(v VertexID, s *Scratch) []VertexID {
	lo, hi := c.Offsets[v], c.Offsets[v+1]
	if c.packed == nil {
		return c.Dsts[lo:hi]
	}
	if s == nil {
		return c.Out(v)
	}
	return s.oc.span(c.packed, &s.out, lo, hi)
}

// InSpan returns v's in-neighbor (source) span, ordered by source
// ascending, under the same contract as OutSpan but through a separate
// cache and buffer. EnsureIn must have been called for directed graphs;
// for undirected graphs the in-span is the out-span (read through the
// in cache, so it can coexist with an OutSpan).
func (c *CSR) InSpan(v VertexID, s *Scratch) []VertexID {
	var lo, hi int32
	var p *packedEdges
	if c.Directed {
		lo, hi = c.inOffsets[v], c.inOffsets[v+1]
		if c.inPacked == nil {
			return c.inSrcs[lo:hi]
		}
		p = c.inPacked
	} else {
		lo, hi = c.Offsets[v], c.Offsets[v+1]
		if c.packed == nil {
			return c.Dsts[lo:hi]
		}
		p = c.packed
	}
	if s == nil {
		return c.In(v)
	}
	return s.ic.span(p, &s.in, lo, hi)
}

// BuildPackedCSR builds a packed CSR snapshot of g: identical to
// BuildCSR except that destinations stream straight into the
// varint-delta block codec — the flat int32 array is never
// materialized, so peak allocation is the retained packed size (exact
// two-pass block sizing), not 4 bytes/entry plus the stream.
// Enumeration order is builder order, exactly as BuildCSR, so engines
// running on the packed snapshot stay byte-identical to the flat path.
func BuildPackedCSR(g *Graph) *CSR {
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
	if hasW {
		c.Weights = make([]float64, total)
	}
	if hasL {
		c.LabelIDs = make([]int32, total)
		c.Labels = slices.Clip(g.edgeLabels)
	}

	// Pass 1: exact encoded size per block, streaming destinations
	// through a one-block window.
	nb := packedNumBlocks(total)
	p := &packedEdges{n: int32(total), boff: make([]uint32, nb+1)}
	var win [edgeBlockLen]VertexID
	fill := 0
	bytes, block := 0, 0
	flushSize := func() {
		p.boff[block] = uint32(bytes)
		bytes += edgeBlockLenBytes(win[:fill])
		block++
		fill = 0
	}
	for v := 0; v < n; v++ {
		for i := range g.Out[v] {
			win[fill] = g.Out[v][i].Dst
			if fill++; fill == edgeBlockLen {
				flushSize()
			}
		}
	}
	if fill > 0 {
		flushSize()
	}
	p.boff[nb] = uint32(bytes)

	// Pass 2: encode into the exactly-sized slab, filling the side
	// arrays on the way.
	p.data = make([]byte, 0, bytes)
	fill = 0
	idx := 0
	for v := 0; v < n; v++ {
		for i := range g.Out[v] {
			e := &g.Out[v][i]
			win[fill] = e.Dst
			fill++
			if hasW {
				c.Weights[idx] = e.W
			}
			if hasL {
				c.LabelIDs[idx] = e.L
			}
			idx++
			if fill == edgeBlockLen {
				p.data = appendEdgeBlock(p.data, win[:fill])
				fill = 0
			}
		}
	}
	if fill > 0 {
		p.data = appendEdgeBlock(p.data, win[:fill])
	}
	c.packed = p
	return c
}

// CompressCSR returns a packed snapshot equivalent to c, sharing the
// offset/weight/label arrays (they are immutable) and compressing only
// the destination array. Returns c itself if already packed. The
// transpose is rebuilt lazily on the packed copy.
func CompressCSR(c *CSR) *CSR {
	if c.packed != nil {
		return c
	}
	return &CSR{
		Directed: c.Directed,
		Offsets:  c.Offsets,
		Weights:  c.Weights,
		LabelIDs: c.LabelIDs,
		Labels:   c.Labels,
		packed:   packEdges(c.Dsts),
		numEdges: c.numEdges,
	}
}

// DecompressCSR returns a flat snapshot equivalent to c, decoding the
// packed destination arrays. Returns c itself if already flat.
func DecompressCSR(c *CSR) *CSR {
	if c.packed == nil {
		return c
	}
	return &CSR{
		Directed: c.Directed,
		Offsets:  c.Offsets,
		Weights:  c.Weights,
		LabelIDs: c.LabelIDs,
		Labels:   c.Labels,
		Dsts:     c.packed.appendRange(make([]VertexID, 0, c.packed.n), 0, c.packed.n),
		numEdges: c.numEdges,
	}
}
