package graph

import "sort"

// deltaOverlay is the live (mutable) record of changes against
// deltaBase. The load-bearing invariant, maintained by ApplyMutations,
// is that for every vertex u
//
//	Out[u] == (base span of u minus tombstoned entries, in order)
//	          ++ (adds[u], in insertion order)
//
// which is exactly the order a full BuildCSR would produce — so a
// frozen DeltaCSR view and a rebuilt CSR enumerate identically, and an
// incremental run that spans an amortized rebuild boundary stays
// byte-identical.
type deltaOverlay struct {
	adds   map[VertexID][]Edge // appended out-entries per source
	inAdds map[VertexID][]Edge // directed only: appended in-entries per dst (Dst = source)
	dels   map[int32]struct{}  // tombstoned base out-flat indices
	delCnt map[VertexID]int    // tombstones per source vertex
	// delPairs counts deleted base (u,v) out-entries for directed
	// graphs, so the in-span walk can skip the first k occurrences of
	// source u (tombstoning always kills the earliest survivor, and
	// base in-spans keep same-source entries in out-index order).
	delPairs     map[[2]VertexID]int
	nAdds, nDels int
}

func newDeltaOverlay(directed bool) *deltaOverlay {
	d := &deltaOverlay{
		adds:   make(map[VertexID][]Edge),
		dels:   make(map[int32]struct{}),
		delCnt: make(map[VertexID]int),
	}
	if directed {
		d.inAdds = make(map[VertexID][]Edge)
		d.delPairs = make(map[[2]VertexID]int)
	}
	return d
}

// DeltaCSR is an immutable view of an evolving graph: a pinned base CSR
// plus a frozen copy of the delta overlay. Readers iterate the base
// spans with tombstones skipped, then the appended entries — the exact
// enumeration order of a fully rebuilt CSR — so incremental jobs can
// run against a mutated graph without paying a rebuild, under the same
// pin/refcount isolation as plain snapshots (the base is pinned; a
// writer mutating and republishing never disturbs it).
type DeltaCSR struct {
	base     *CSR
	directed bool
	epoch    int64
	n, m     int
	adds     map[VertexID][]Edge
	inAdds   map[VertexID][]Edge // sorted by source ascending (stable)
	dels     map[int32]struct{}
	delCnt   map[VertexID]int
	delPairs map[[2]VertexID]int
}

// PinDelta returns a pinned immutable delta view of the graph's current
// state. The view's base CSR is reference-counted exactly like Pin's
// snapshot (Pins counts it; Unpin via UnpinDelta); the overlay portion
// is frozen at call time. Repeated pins at the same version share one
// view. Callers that want a plain flat CSR should use Pin instead —
// PinDelta is for incremental consumers that benefit from skipping the
// rebuild after small mutation batches.
func (g *Graph) PinDelta() *DeltaCSR {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.deltaView == nil || g.deltaViewVersion != g.version {
		g.deltaView = g.freezeDeltaLocked()
		g.deltaViewVersion = g.version
	}
	d := g.deltaView
	if g.pins == nil {
		g.pins = make(map[*CSR]int)
	}
	g.pins[d.base]++
	return d
}

// UnpinDelta releases the reference PinDelta holds on the view's base.
func (g *Graph) UnpinDelta(d *DeltaCSR) { g.Unpin(d.base) }

func (g *Graph) freezeDeltaLocked() *DeltaCSR {
	d := g.delta
	if d == nil || (d.nAdds == 0 && d.nDels == 0) {
		// No overlay (or an empty one): the view is just the current
		// snapshot. csrLocked re-bases an empty overlay for free.
		return &DeltaCSR{base: g.csrLocked(), directed: g.Directed, epoch: g.epoch, n: g.N(), m: g.numEdges}
	}
	v := &DeltaCSR{
		base:     g.deltaBase,
		directed: g.Directed,
		epoch:    g.epoch,
		n:        g.N(),
		m:        g.numEdges,
		// Add-slices can be shared: deletes reallocate them and
		// appends only write past the frozen length. The maps are
		// copied — future batches insert into the live ones.
		adds:   make(map[VertexID][]Edge, len(d.adds)),
		dels:   make(map[int32]struct{}, len(d.dels)),
		delCnt: make(map[VertexID]int, len(d.delCnt)),
	}
	for u, es := range d.adds {
		v.adds[u] = es
	}
	for i := range d.dels {
		v.dels[i] = struct{}{}
	}
	for u, c := range d.delCnt {
		v.delCnt[u] = c
	}
	if g.Directed {
		v.inAdds = make(map[VertexID][]Edge, len(d.inAdds))
		for u, es := range d.inAdds {
			// Copied, not shared: the in-span merge needs these
			// sorted by source, and sorting in place would reorder
			// the live overlay.
			cp := append([]Edge(nil), es...)
			sort.SliceStable(cp, func(i, j int) bool { return cp[i].Dst < cp[j].Dst })
			v.inAdds[u] = cp
		}
		v.delPairs = make(map[[2]VertexID]int, len(d.delPairs))
		for k, c := range d.delPairs {
			v.delPairs[k] = c
		}
	}
	return v
}

// N returns the number of vertices.
func (d *DeltaCSR) N() int { return d.n }

// M returns the number of edges (undirected edges counted once).
func (d *DeltaCSR) M() int { return d.m }

// Epoch returns the graph epoch this view was frozen at.
func (d *DeltaCSR) Epoch() int64 { return d.epoch }

// Base returns the pinned base CSR the overlay applies to.
func (d *DeltaCSR) Base() *CSR { return d.base }

// OverlaySize returns the number of overlay additions and deletions —
// the work a reader pays on top of the base spans.
func (d *DeltaCSR) OverlaySize() (adds, dels int) {
	for _, es := range d.adds {
		adds += len(es)
	}
	return adds, len(d.dels)
}

// OutDegree returns the out-degree of v in the evolved graph.
func (d *DeltaCSR) OutDegree(v VertexID) int {
	return d.base.OutDegree(v) - d.delCnt[v] + len(d.adds[v])
}

// ForEachOut calls f for every out-edge of v in canonical order: the
// surviving base entries in base order, then the appended entries in
// insertion order — identical to the enumeration of a rebuilt CSR.
func (d *DeltaCSR) ForEachOut(v VertexID, f func(dst VertexID, w float64)) {
	if d.delCnt[v] == 0 {
		d.base.ForEachOut(v, f)
	} else {
		// Flat-index walk so tombstones can be checked; forEachOutIdx
		// block-decodes packed bases into a stack buffer.
		d.base.forEachOutIdx(v, func(i int32, dst VertexID) {
			if _, dead := d.dels[i]; dead {
				return
			}
			f(dst, d.base.Weight(i))
		})
	}
	for _, e := range d.adds[v] {
		f(e.Dst, e.W)
	}
}

// ForEachIn calls f for every in-edge (src -> v) in canonical order:
// sources ascending, same-source entries in out-index order, matching a
// rebuilt CSR's in-span exactly. For undirected graphs in == out.
func (d *DeltaCSR) ForEachIn(v VertexID, f func(src VertexID, w float64)) {
	if !d.directed {
		d.ForEachOut(v, f)
		return
	}
	d.base.EnsureIn()
	adds := d.inAdds[v]
	ai := 0
	cur := VertexID(-1)
	toSkip := 0
	d.base.forEachInIdx(v, func(i int32, s VertexID) {
		if s != cur {
			cur = s
			toSkip = d.delPairs[[2]VertexID{s, v}]
		}
		// Appended entries from strictly smaller sources precede this
		// run; equal-source appends follow the whole base run (they
		// were inserted later, i.e. at larger out-indices).
		for ai < len(adds) && adds[ai].Dst < s {
			f(adds[ai].Dst, adds[ai].W)
			ai++
		}
		if toSkip > 0 {
			toSkip--
			return
		}
		w := 1.0
		if d.base.inWeights != nil {
			w = d.base.inWeights[i]
		}
		f(s, w)
	})
	for ; ai < len(adds); ai++ {
		f(adds[ai].Dst, adds[ai].W)
	}
}

// touched reports whether the overlay changes v's out-adjacency.
func (d *DeltaCSR) touched(v VertexID) bool { return d.delCnt[v] != 0 || len(d.adds[v]) != 0 }

// OutSpan returns v's out-neighbor span in ForEachOut's canonical order,
// under CSR.OutSpan's contract. When the overlay leaves v alone it is the
// base span itself; otherwise it is assembled in s (which must be
// non-nil), allocation-free once s has grown.
func (d *DeltaCSR) OutSpan(v VertexID, s *Scratch) []VertexID {
	if !d.touched(v) {
		return d.base.OutSpan(v, s)
	}
	s.out = s.out[:0]
	d.ForEachOut(v, func(dst VertexID, _ float64) { s.out = append(s.out, dst) })
	return s.out
}

// OutWeights returns v's out-edge weight span aligned with OutSpan(v, s),
// or nil when every one of those weights is 1. When the overlay leaves v
// alone it is the base span itself; otherwise it is assembled in s.
func (d *DeltaCSR) OutWeights(v VertexID, s *Scratch) []float64 {
	if !d.touched(v) {
		return d.base.OutWeights(v)
	}
	s.w = s.w[:0]
	d.ForEachOut(v, func(_ VertexID, w float64) { s.w = append(s.w, w) })
	return s.w
}

// InSpan returns v's in-neighbor span in ForEachIn's canonical order,
// under CSR.InSpan's contract: the base span when the overlay leaves v's
// in-adjacency alone, else assembled in s.
func (d *DeltaCSR) InSpan(v VertexID, s *Scratch) []VertexID {
	if d.directed {
		if len(d.inAdds[v]) == 0 && len(d.delPairs) == 0 {
			d.base.EnsureIn()
			return d.base.InSpan(v, s)
		}
	} else if !d.touched(v) {
		return d.base.InSpan(v, s)
	}
	s.in = s.in[:0]
	d.ForEachIn(v, func(src VertexID, _ float64) { s.in = append(s.in, src) })
	return s.in
}
