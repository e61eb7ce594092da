package pregel

import (
	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// Checkpointing: Pregel's fault-tolerance mechanism. When
// Config.CheckpointEvery is set, the engine snapshots the complete
// computation state (vertex values, halt flags, undelivered messages,
// mutated adjacency, globals, and — via Snapshotter — master state) at
// every k-th superstep barrier, retaining the last two generations
// (runtime.Checkpoints). A failure — a crash or a lost message batch
// scheduled by Config.Faults — rolls the computation back to the
// newest checkpoint that passes validation: a corrupted snapshot is
// detected at recovery time and skipped in favor of the previous
// generation (or a fresh restart). The redone supersteps stay in the
// Stats, as they would on a real cluster; Stats.Recovery itemizes the
// recovery cost.
//
// With Config.FullSnapshotEvery > 1 the engine additionally implements
// runtime.DeltaPolicy: between full snapshots it saves dirty-set delta
// frames covering only the vertices that computed, received mail, or
// were reactivated since the previous frame. Recovery then rebuilds a
// generation by restoring the newest readable full frame and applying
// its delta chain in order; a corrupt frame anywhere in a chain
// invalidates every frame above it (see runtime.Checkpoints).
//
// Vertex values and messages are copied shallowly; programs whose V
// carries reference types (slices, maps) must implement
// runtime.ValueCloner to deep-copy them, or recovery would alias live
// state.

// Snapshotter lets a program (typically one with master state) save
// and restore that state across a rollback. A snapshot value with a
// SizeBytes() int method (vertex state kept in program-owned stores) is
// charged that many bytes per checkpoint frame.
type Snapshotter interface {
	Snapshot() any
	Restore(snapshot any)
}

type checkpoint[V, M any] struct {
	values  []V
	halted  []bool
	inbox   [][]M
	rawRecv []int64
	// adj records only the vertices whose adjacency diverged from the
	// CSR snapshot (SetOutEdges); everything else restores to the
	// immutable snapshot for free, so a checkpoint is O(mutations)
	// instead of O(m) in adjacency.
	adj         map[VertexID][]graph.Edge
	globals     map[string]any
	aggCurrent  map[string]any
	masterState any
	// Delta frames (SnapshotDelta): ids lists the dirty vertices in
	// ascending order, and values/halted/inbox/rawRecv are indexed by
	// position in ids instead of by VertexID; adj holds the overrides
	// of dirty mutated vertices. The tiny whole-run state — globals,
	// aggregators, master state — is always carried in full.
	delta bool
	ids   []VertexID
}

func (e *Engine[V, M]) cloneValues(src []V) []V {
	return rt.CloneValues(e.prog, src)
}

// Snapshot implements runtime.Policy: it deep-copies the state
// reachable at the current barrier. The driver owns the checkpoint
// store, the save cadence, and the corruption injection.
func (e *Engine[V, M]) Snapshot() *checkpoint[V, M] {
	n := e.g.N()
	ck := &checkpoint[V, M]{
		values:     e.cloneValues(e.values),
		halted:     append([]bool(nil), e.halted...),
		inbox:      make([][]M, n),
		rawRecv:    make([]int64, n),
		adj:        make(map[VertexID][]graph.Edge),
		globals:    make(map[string]any, len(e.globals)),
		aggCurrent: make(map[string]any, len(e.aggCurrent)),
	}
	for v := 0; v < n; v++ {
		ck.inbox[v] = append([]M(nil), e.mbox.Inbox(VertexID(v))...)
		ck.rawRecv[v] = e.mbox.RawCount(VertexID(v))
	}
	for v, isMut := range e.mutated {
		if isMut {
			ck.adj[VertexID(v)] = append([]graph.Edge(nil), e.adj[v]...)
		}
	}
	for k, v := range e.globals {
		ck.globals[k] = v
	}
	for k, v := range e.aggCurrent {
		ck.aggCurrent[k] = v
	}
	if s, ok := e.prog.(Snapshotter); ok {
		ck.masterState = s.Snapshot()
	}
	e.clearDirty()
	return ck
}

// SnapshotDelta implements runtime.DeltaPolicy: it deep-copies only
// the vertices dirtied since the previous frame — computed, mailed, or
// reactivated — plus the full (small) globals/aggregator/master state,
// and resets the dirty tracking so the next frame patches this one.
func (e *Engine[V, M]) SnapshotDelta() *checkpoint[V, M] {
	var ids []VertexID
	for v, d := range e.dirty {
		if d {
			ids = append(ids, VertexID(v))
			e.dirty[v] = false
		}
	}
	ck := &checkpoint[V, M]{
		delta:      true,
		ids:        ids,
		values:     rt.CloneValuesAt(e.prog, e.values, ids),
		halted:     make([]bool, len(ids)),
		inbox:      make([][]M, len(ids)),
		rawRecv:    make([]int64, len(ids)),
		adj:        make(map[VertexID][]graph.Edge),
		globals:    make(map[string]any, len(e.globals)),
		aggCurrent: make(map[string]any, len(e.aggCurrent)),
	}
	for i, id := range ids {
		ck.halted[i] = e.halted[id]
		ck.inbox[i] = append([]M(nil), e.mbox.Inbox(id)...)
		ck.rawRecv[i] = e.mbox.RawCount(id)
		if e.mutated[id] {
			ck.adj[id] = append([]graph.Edge(nil), e.adj[id]...)
		}
	}
	for k, v := range e.globals {
		ck.globals[k] = v
	}
	for k, v := range e.aggCurrent {
		ck.aggCurrent[k] = v
	}
	if s, ok := e.prog.(Snapshotter); ok {
		ck.masterState = s.Snapshot()
	}
	return ck
}

// RestoreDelta implements runtime.DeltaPolicy: it patches the dirty
// vertices of one delta frame onto the state already rebuilt from the
// chain so far. Adjacency overrides only accumulate between frames
// (mutated never clears mid-run), so applying them additively is exact.
func (e *Engine[V, M]) RestoreDelta(ck *checkpoint[V, M]) {
	if cloner, ok := e.prog.(rt.ValueCloner[V]); ok {
		for i, id := range ck.ids {
			e.values[id] = cloner.CloneValue(ck.values[i])
		}
	} else {
		for i, id := range ck.ids {
			e.values[id] = ck.values[i]
		}
	}
	for i, id := range ck.ids {
		e.halted[id] = ck.halted[i]
		e.mbox.LoadVertex(id, ck.inbox[i], ck.rawRecv[i])
	}
	for v, a := range ck.adj {
		e.adj[v] = append([]graph.Edge(nil), a...)
		e.mutated[v] = true
	}
	e.globals = make(map[string]any, len(ck.globals))
	for k, v := range ck.globals {
		e.globals[k] = v
	}
	for k, v := range ck.aggCurrent {
		e.aggCurrent[k] = v
	}
	if s, hasState := e.prog.(Snapshotter); hasState {
		s.Restore(ck.masterState)
	}
	e.rebuildWorklists()
}

// FrameBytes implements runtime.SnapshotSizer: a deterministic
// resident-byte estimate of a frame (full or delta) — element sizes
// times element counts. Boxed global/aggregator values are opaque and
// charged a flat per-entry cost on both frame kinds; the Snapshotter
// state is charged its SizeBytes when it reports one (program-private
// vertex stores), and nothing otherwise (a few master counters).
func (e *Engine[V, M]) FrameBytes(ck *checkpoint[V, M]) int64 {
	b := int64(len(ck.values))*rt.SizeOf[V]() +
		int64(len(ck.halted)) +
		int64(len(ck.rawRecv))*8 +
		int64(len(ck.ids))*rt.SizeOf[VertexID]()
	szM := rt.SizeOf[M]()
	for _, in := range ck.inbox {
		b += int64(len(in)) * szM
	}
	szE := rt.SizeOf[graph.Edge]()
	for _, a := range ck.adj {
		b += rt.MapEntryBytes + int64(len(a))*szE
	}
	b += int64(len(ck.globals)+len(ck.aggCurrent)) * rt.MapEntryBytes
	if s, ok := ck.masterState.(interface{ SizeBytes() int }); ok {
		b += int64(s.SizeBytes())
	}
	return b
}

func (e *Engine[V, M]) clearDirty() {
	for v := range e.dirty {
		e.dirty[v] = false
	}
}

// Restore implements runtime.Policy: it rolls the engine back to a
// checkpoint read by the driver's store (ok), or to a fresh start when
// no readable checkpoint exists (!ok).
func (e *Engine[V, M]) Restore(ck *checkpoint[V, M], step int, ok bool) {
	e.recoveries++
	if !ok {
		// No checkpoint yet: restart from the pristine Init-time values
		// kept by NewEngine — re-running Init here would read the
		// mutable graph mid-run.
		e.values = rt.CloneValues[V](e.prog, e.pristine)
		for v := 0; v < e.g.N(); v++ {
			e.halted[v] = false
			e.mbox.ResetVertex(VertexID(v))
		}
		e.resetAdjacency()
		for name, a := range e.aggs {
			e.aggCurrent[name] = a.Zero()
		}
		e.globals = make(map[string]any)
		if s, hasState := e.prog.(Snapshotter); hasState {
			s.Restore(nil)
		}
		e.clearDirty()
		e.rebuildWorklists()
		return
	}
	e.values = e.cloneValues(ck.values)
	copy(e.halted, ck.halted)
	for v := 0; v < e.g.N(); v++ {
		e.mbox.LoadVertex(VertexID(v), ck.inbox[v], ck.rawRecv[v])
	}
	e.resetAdjacency()
	for v, a := range ck.adj {
		e.adj[v] = append([]graph.Edge(nil), a...)
		e.mutated[v] = true
	}
	e.globals = make(map[string]any, len(ck.globals))
	for k, v := range ck.globals {
		e.globals[k] = v
	}
	for k, v := range ck.aggCurrent {
		e.aggCurrent[k] = v
	}
	if s, hasState := e.prog.(Snapshotter); hasState {
		s.Restore(ck.masterState)
	}
	e.clearDirty()
	e.rebuildWorklists()
}

// resetAdjacency drops every mutated adjacency override, returning all
// vertices to the CSR snapshot. Materialized-but-unmutated caches are
// kept — their content equals the snapshot.
func (e *Engine[V, M]) resetAdjacency() {
	for v, isMut := range e.mutated {
		if isMut {
			e.adj[v] = nil
			e.mutated[v] = false
		}
	}
}

// rebuildWorklists reconstructs the active-vertex worklists from the
// restored halt flags and inboxes after a rollback.
func (e *Engine[V, M]) rebuildWorklists() {
	e.wl.Clear()
	for v := 0; v < e.g.N(); v++ {
		if !e.halted[v] || e.mbox.RawCount(VertexID(v)) > 0 {
			e.wl.Add(int(e.ownerOf[v]), VertexID(v))
		}
	}
}

// Recoveries reports how many failure recoveries the run performed.
func (e *Engine[V, M]) Recoveries() int { return e.recoveries }
