package runtime

import "math"

// MinPlus is the label-correcting kernel of Hash-Min connected
// components and single-source shortest paths: every vertex keeps the
// smallest label a neighbour offers, and a neighbour offers its own
// label, plus the edge's weight when the kernel is weighted. Top is the
// label nothing has reached (Top plus a weight is Top). gas, async and
// block-centric each lower it once; min is order-independent, so every
// lowering reaches the same fixpoint under any schedule, worker count
// or fault plan.
type MinPlus[V VertexID | float64] struct {
	init     func(v VertexID) V
	weighted bool
	top      V
}

// CC is Hash-Min: labels start as the vertex IDs, or as seed when not
// nil, and an edge carries its source's label unchanged. Top is
// MaxInt32.
func CC(seed []VertexID) MinPlus[VertexID] {
	init := func(v VertexID) VertexID { return v }
	if seed != nil {
		init = func(v VertexID) VertexID { return seed[v] }
	}
	return MinPlus[VertexID]{init: init, top: math.MaxInt32}
}

// SSSP is shortest paths from src: distances start at 0 for src and
// +Inf elsewhere, or as seed when not nil, and an edge adds its weight.
// Top is +Inf.
func SSSP(src VertexID, seed []float64) MinPlus[float64] {
	init := func(v VertexID) float64 {
		if v == src {
			return 0
		}
		return math.Inf(1)
	}
	if seed != nil {
		init = func(v VertexID) float64 { return seed[v] }
	}
	return MinPlus[float64]{init: init, weighted: true, top: math.Inf(1)}
}

// Init is v's label before any offer.
func (k MinPlus[V]) Init(v VertexID) V { return k.init(v) }

// Weighted reports whether an edge adds its weight to its offer.
func (k MinPlus[V]) Weighted() bool { return k.weighted }

// Top is the unreached label.
func (k MinPlus[V]) Top() V { return k.top }

// Offer is what a vertex labelled l offers over an edge of weight w.
func (k MinPlus[V]) Offer(l V, w float64) V {
	if k.weighted {
		return V(float64(l) + w)
	}
	return l
}

// OfferOver is Offer over the i-th edge of a span whose weights are ws
// (nil: every weight is 1).
func (k MinPlus[V]) OfferOver(l V, ws []float64, i int) V {
	if ws == nil {
		return k.Offer(l, 1)
	}
	return k.Offer(l, ws[i])
}
