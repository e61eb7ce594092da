package vc

import "maps"

// Checkpoint support for the vertex-centric programs. Two footguns
// live here, both invisible until a rollback actually happens:
//
//   - Programs whose vertex value V carries slices or maps must
//     implement CloneValue (runtime.ValueCloner), or a checkpoint's
//     values alias the live computation: the run mutates the snapshot
//     after it was "saved", and recovery restores corrupted state.
//
//   - Programs with master state (fields mutated in BeforeSuperstep)
//     must implement pregel.Snapshotter, or a rollback rewinds vertex
//     state while the master keeps marching forward — e.g. the S-V
//     phase machine would resume mid-cycle against round-0 values.
//
// Restore only ever receives a value Snapshot returned: a rollback with
// no readable checkpoint restores the snapshot the driver took before
// superstep 0.

// --- vertex-value deep copies ---

func (p *diamProgram) CloneValue(v diamValue) diamValue {
	v.dist = append([]int32(nil), v.dist...)
	return v
}

func (p *bcBatchProgram) CloneValue(v bcBatchValue) bcBatchValue {
	return bcBatchValue{
		dist:    append([]int32(nil), v.dist...),
		sigma:   append([]float64(nil), v.sigma...),
		delta:   append([]float64(nil), v.delta...),
		pending: append([]int32(nil), v.pending...),
		done:    append([]bool(nil), v.done...),
	}
}

func (p *bpmProgram) CloneValue(v bpmValue) bpmValue {
	v.candidates = append([]VertexID(nil), v.candidates...)
	return v
}

func (p *triProgram) CloneValue(v triValue) triValue {
	v.higher = append([]VertexID(nil), v.higher...)
	return v
}

func (p *simProgram) CloneValue(v simValue) simValue {
	v.childSets = maps.Clone(v.childSets)
	v.parentSets = maps.Clone(v.parentSets)
	return v
}

func (eulerProgram) CloneValue(v eulerValue) eulerValue {
	v.succ = maps.Clone(v.succ)
	return v
}

func (p *mcstProgram) CloneValue(v mcstValue) mcstValue {
	v.edges = append([]mcstEdge(nil), v.edges...)
	return v
}

func (p *scProgram) CloneValue(v scValue) scValue {
	cs := make([]SemiCluster, len(v.clusters))
	for i, c := range v.clusters {
		c.Members = append([]VertexID(nil), c.Members...)
		cs[i] = c
	}
	return scValue{clusters: cs}
}

func (p *ssProgram) CloneValue(v ssValue) ssValue {
	v.records = maps.Clone(v.records)
	v.fresh = append([]ssRecord(nil), v.fresh...)
	return v
}

// --- master-state snapshots ---

type svMasterSnap struct {
	roundChanged bool
	edges        [][2]VertexID
	snapshots    [][]VertexID
}

func (p *svProgram) Snapshot() any {
	return svMasterSnap{
		roundChanged: p.roundChanged,
		edges:        append([][2]VertexID(nil), p.edges...),
		snapshots:    append([][]VertexID(nil), p.snapshots...),
	}
}

func (p *svProgram) Restore(s any) {
	m := s.(svMasterSnap)
	p.roundChanged = m.roundChanged
	// Copy on restore too: the same snapshot generation can be
	// restored more than once, and the run appends to these slices.
	p.edges = append([][2]VertexID(nil), m.edges...)
	p.snapshots = append([][]VertexID(nil), m.snapshots...)
}

type mcstMasterSnap struct {
	phase  int
	picked []pickedEdge
}

func (p *mcstProgram) Snapshot() any {
	return mcstMasterSnap{phase: p.phase, picked: append([]pickedEdge(nil), p.picked...)}
}

func (p *mcstProgram) Restore(s any) {
	m := s.(mcstMasterSnap)
	p.phase = m.phase
	p.picked = append([]pickedEdge(nil), m.picked...)
}

func (p *bcProgram) Snapshot() any { return p.mode }
func (p *bcProgram) Restore(s any) { p.mode = s.(int) }

func (p *bcBatchProgram) Snapshot() any { return p.mode }
func (p *bcBatchProgram) Restore(s any) { p.mode = s.(int) }

func (p *mwmProgram) Snapshot() any { return p.phase }
func (p *mwmProgram) Restore(s any) { p.phase = s.(int) }

func (p *bpmProgram) Snapshot() any { return p.phase }
func (p *bpmProgram) Restore(s any) { p.phase = s.(int) }

func (p *misProgram) Snapshot() any { return p.phase }
func (p *misProgram) Restore(s any) { p.phase = s.(int) }

func (p *sccProgram) Snapshot() any { return p.phase }
func (p *sccProgram) Restore(s any) { p.phase = s.(int) }

type colMasterSnap struct{ phase, c int }

func (p *colProgram) Snapshot() any { return colMasterSnap{p.phase, p.c} }
func (p *colProgram) Restore(s any) {
	m := s.(colMasterSnap)
	p.phase, p.c = m.phase, m.c
}

func (p *hitsProgram) Snapshot() any { return p.norm }
func (p *hitsProgram) Restore(s any) { p.norm = s.(float64) }
