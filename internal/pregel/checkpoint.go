package pregel

import (
	"maps"

	"vcgraph/internal/graph"
	rt "vcgraph/internal/runtime"
)

// Checkpointing is Pregel's fault-tolerance mechanism; cadence, the
// frame chain store, corruption and rollback are runtime.Driver's and
// runtime.Checkpoints'. The engine contributes its one frame: vertex
// values, halt flags, undelivered messages and adjacency overrides of
// the vertices the frame carries — every vertex in a full frame, those
// that computed, received mail or were reactivated since the previous
// frame in a delta — plus globals, aggregators and (via Snapshotter)
// master state whole. Values and messages are copied shallowly;
// programs whose V carries reference types must implement
// runtime.ValueCloner.

// Snapshotter lets a program (typically one with master state) save
// and restore that state across a rollback. A snapshot value with a
// SizeBytes() int method (vertex state kept in program-owned stores) is
// charged that many bytes per checkpoint frame.
type Snapshotter interface {
	Snapshot() any
	Restore(snapshot any)
}

// checkpoint is one frame. ids lists the carried vertices ascending
// (nil: every vertex); values, halted, inboxLen and rawRecv are indexed
// by position in ids. inbox holds the carried inboxes back to back, the
// i-th inboxLen[i] messages long.
type checkpoint[V, M any] struct {
	ids      []VertexID
	values   []V
	halted   []bool
	inbox    []M
	inboxLen []int32
	rawRecv  []int64
	// adj holds the overrides of the carried vertices whose adjacency
	// diverged from the CSR snapshot (SetOutEdges); everything else
	// restores to the immutable snapshot for free, so a frame is
	// O(mutations) instead of O(m) in adjacency.
	adj         map[VertexID][]graph.Edge
	globals     map[string]any
	aggCurrent  map[string]any
	masterState any
}

// Snapshot implements runtime.Policy: it deep-copies the state
// reachable at the current barrier — every vertex when full, else the
// dirty ones — and resets the dirty tracking. The per-vertex arrays and
// the inboxes, counted before they are copied, are leased from the
// run-buffer cache; the maps and the master state are not.
func (e *Engine[V, M]) Snapshot(full bool) *checkpoint[V, M] {
	ids := rt.TakeDirty[VertexID](e.dirty, full)
	n := len(e.halted)
	if ids != nil {
		n = len(ids)
	}
	ck := &checkpoint[V, M]{
		ids:        ids,
		values:     rt.CloneValuesAt(e.prog, e.values, ids),
		halted:     rt.TakeArray[bool](n),
		inboxLen:   rt.TakeArray[int32](n),
		rawRecv:    rt.TakeArray[int64](n),
		globals:    maps.Clone(e.globals),
		aggCurrent: maps.Clone(e.aggCurrent),
	}
	total := 0
	for i := range ck.halted {
		v := rt.FrameID(ids, i)
		ck.halted[i] = e.halted[v]
		ck.inboxLen[i] = int32(len(e.mbox.Inbox(v)))
		total += int(ck.inboxLen[i])
		ck.rawRecv[i] = e.mbox.RawCount(v)
		if e.mutated[v] {
			if ck.adj == nil {
				ck.adj = make(map[VertexID][]graph.Edge)
			}
			ck.adj[v] = append([]graph.Edge(nil), e.adj[v]...)
		}
	}
	ck.inbox = rt.TakeArray[M](total)
	at := 0
	for i, k := range ck.inboxLen {
		if k != 0 {
			at += copy(ck.inbox[at:], e.mbox.Inbox(rt.FrameID(ids, i)))
		}
	}
	if s, ok := e.prog.(Snapshotter); ok {
		ck.masterState = s.Snapshot()
	}
	return ck
}

// Retire implements runtime.Policy.
func (e *Engine[V, M]) Retire(ck *checkpoint[V, M]) {
	rt.KeepArray(ck.ids)
	rt.KeepArray(ck.values)
	rt.KeepArray(ck.halted)
	rt.KeepArray(ck.inbox)
	rt.KeepArray(ck.inboxLen)
	rt.KeepArray(ck.rawRecv)
}

// FrameBytes implements runtime.Policy: element sizes times element
// counts. Boxed global/aggregator values are opaque and charged a flat
// per-entry cost; the Snapshotter state is charged its SizeBytes when it
// reports one (program-private vertex stores), and nothing otherwise (a
// few master counters).
func (e *Engine[V, M]) FrameBytes(ck *checkpoint[V, M]) int64 {
	b := int64(len(ck.values))*rt.SizeOf[V]() +
		int64(len(ck.halted)) +
		int64(len(ck.rawRecv))*8 +
		int64(len(ck.ids))*rt.SizeOf[VertexID]() +
		int64(len(ck.inbox))*rt.SizeOf[M]()
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

// Restore implements runtime.Policy: a full frame replaces the engine
// state, a delta patches its vertices onto the state the chain has
// rebuilt so far (adjacency overrides only accumulate between frames,
// so applying them additively is exact).
func (e *Engine[V, M]) Restore(ck *checkpoint[V, M], step int) {
	if ck.ids == nil {
		e.resetAdjacency()
	}
	rt.RestoreValuesAt(e.prog, e.values, ck.values, ck.ids)
	inbox := ck.inbox
	for i, h := range ck.halted {
		v := rt.FrameID(ck.ids, i)
		e.halted[v] = h
		e.mbox.LoadVertex(v, inbox[:ck.inboxLen[i]], ck.rawRecv[i])
		inbox = inbox[ck.inboxLen[i]:]
	}
	for v, a := range ck.adj {
		e.adj[v] = append([]graph.Edge(nil), a...)
		e.mutated[v] = true
	}
	e.globals = maps.Clone(ck.globals)
	maps.Copy(e.aggCurrent, ck.aggCurrent)
	if s, hasState := e.prog.(Snapshotter); hasState {
		s.Restore(ck.masterState)
	}
	clear(e.dirty)
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
