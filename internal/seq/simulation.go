package seq

import (
	"sort"

	"vcgraph/internal/graph"
)

// Pattern-matching baselines for Table 1 rows 18-20. Q and G are
// directed vertex-labeled graphs. Sim relations are represented as
// sim[q][u] == true meaning query node q is matched by data node u; the
// algorithms compute the *maximum* simulation relation (greatest
// fixpoint), following Henzinger et al. for graph simulation and
// Ma et al. for dual and strong simulation.

// GraphSimulation computes the maximum graph-simulation relation of Q
// in G: sim[q][u] requires label equality and, for every query edge
// (q,q'), a data edge (u,u') with sim[q'][u'].
func GraphSimulation(g, q *graph.Graph, ops *Ops) [][]bool {
	return simulate(g, q, ops, false)
}

// DualSimulation additionally requires, for every query edge (q”,q),
// a data edge (u”,u) with sim[q”][u”] (parent condition).
func DualSimulation(g, q *graph.Graph, ops *Ops) [][]bool {
	return simulate(g, q, ops, true)
}

func simulate(g, q *graph.Graph, ops *Ops, dual bool) [][]bool {
	g.EnsureIn()
	q.EnsureIn()
	nq, n := q.N(), g.N()
	sim := make([][]bool, nq)
	for qi := 0; qi < nq; qi++ {
		sim[qi] = make([]bool, n)
		for u := 0; u < n; u++ {
			ops.Inc()
			sim[qi][u] = g.Label(VertexID(u)) == q.Label(VertexID(qi))
		}
	}
	refineCounters(g, q, sim, ops, dual)
	return sim
}

// refineCounters shrinks sim in place to the greatest fixpoint with the
// counter-based refinement in the style of Henzinger et al.: cnt[q'][u]
// counts children of u in sim(q'), pcnt[q'][u] counts parents; a pair
// is removed (and propagated through a worklist) the moment a required
// counter hits zero. O((m+n)(m_q+n_q)) amortized, matching the Table 1
// baseline complexities. g.In must be built.
func refineCounters(g, q *graph.Graph, sim [][]bool, ops *Ops, dual bool) {
	nq, n := q.N(), g.N()
	cnt := make([][]int32, nq)
	pcnt := make([][]int32, nq)
	for qi := 0; qi < nq; qi++ {
		cnt[qi] = make([]int32, n)
		pcnt[qi] = make([]int32, n)
	}
	for u := 0; u < n; u++ {
		for _, e := range g.Out[u] {
			for qi := 0; qi < nq; qi++ {
				ops.Inc()
				if sim[qi][e.Dst] {
					cnt[qi][u]++
				}
				if sim[qi][u] {
					pcnt[qi][e.Dst]++
				}
			}
		}
	}
	type pair struct {
		q VertexID
		u VertexID
	}
	var queue []pair
	remove := func(qi, u VertexID) {
		if !sim[qi][u] {
			return
		}
		sim[qi][u] = false
		queue = append(queue, pair{qi, u})
	}
	// Initial violations.
	for qi := 0; qi < nq; qi++ {
		for u := 0; u < n; u++ {
			if !sim[qi][u] {
				continue
			}
			ok := true
			for _, qe := range q.Out[qi] {
				ops.Inc()
				if cnt[qe.Dst][u] == 0 {
					ok = false
					break
				}
			}
			if ok && dual {
				for _, qe := range q.In[qi] {
					ops.Inc()
					if pcnt[qe.Dst][u] == 0 {
						ok = false
						break
					}
				}
			}
			if !ok {
				remove(VertexID(qi), VertexID(u))
			}
		}
	}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		// (p.q, p.u) left the relation: parents of p.u lose a child
		// witness for query node p.q ...
		for _, ge := range g.In[p.u] {
			u := ge.Dst
			ops.Inc()
			cnt[p.q][u]--
			if cnt[p.q][u] == 0 {
				for _, qe := range q.In[p.q] {
					ops.Inc()
					remove(qe.Dst, u)
				}
			}
		}
		// ... and, for dual simulation, children of p.u lose a parent
		// witness.
		if dual {
			for _, ge := range g.Out[p.u] {
				u := ge.Dst
				ops.Inc()
				pcnt[p.q][u]--
				if pcnt[p.q][u] == 0 {
					for _, qe := range q.Out[p.q] {
						ops.Inc()
						remove(qe.Dst, u)
					}
				}
			}
		}
	}
}

// SimNonEmpty reports whether every query node has at least one match
// (i.e., Q is simulated by G).
func SimNonEmpty(sim [][]bool) bool {
	for _, row := range sim {
		ok := false
		for _, b := range row {
			if b {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// QueryDiameter returns the diameter of the query graph treating edges
// as undirected (the ball radius of strong simulation). Disconnected
// queries get the max finite distance.
func QueryDiameter(q *graph.Graph) int32 {
	u := q.Underlying()
	var ops Ops
	return Diameter(u, &ops)
}

// StrongSimulation computes, per Ma et al., the set of data vertices w
// such that the ball of radius diameter(Q) around w (undirected
// distance) admits a maximum dual simulation of Q whose image contains
// w. It returns centers[w] plus the global dual-sim relation used for
// candidate pruning.
func StrongSimulation(g, q *graph.Graph, ops *Ops) (centers []bool, dual [][]bool) {
	g.EnsureIn()
	n := g.N()
	centers = make([]bool, n)
	dual = DualSimulation(g, q, ops)
	dq := int(QueryDiameter(q))
	// Candidates: members of the global dual-sim image (anything outside
	// it cannot be in a ball-local dual sim either).
	inImage := make([]bool, n)
	for qi := range dual {
		for u, b := range dual[qi] {
			if b {
				inImage[u] = true
			}
		}
	}
	und := g.Underlying()
	for w := 0; w < n; w++ {
		if !inImage[w] {
			continue
		}
		ball := ballVertices(und, VertexID(w), dq, ops)
		sub, idx := inducedSubgraph(g, ball)
		// Start from the globally pruned relation restricted to the ball.
		sim := make([][]bool, q.N())
		for qi := range sim {
			sim[qi] = make([]bool, len(ball))
			for i, v := range ball {
				sim[qi][i] = dual[qi][v]
			}
		}
		refineCounters(sub, q, sim, ops, true)
		wi := idx[VertexID(w)]
		for qi := range sim {
			if sim[qi][wi] {
				centers[w] = true
				break
			}
		}
	}
	return centers, dual
}

// ballVertices returns the vertices within hop distance r of w in the
// undirected graph, sorted ascending.
func ballVertices(und *graph.Graph, w VertexID, r int, ops *Ops) []VertexID {
	dist := map[VertexID]int{w: 0}
	queue := []VertexID{w}
	out := []VertexID{w}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] == r {
			continue
		}
		for _, e := range und.Out[v] {
			ops.Inc()
			if _, seen := dist[e.Dst]; !seen {
				dist[e.Dst] = dist[v] + 1
				queue = append(queue, e.Dst)
				out = append(out, e.Dst)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// inducedSubgraph extracts the subgraph of g induced by vs (directed,
// labels preserved) and returns it with the old->new index map.
func inducedSubgraph(g *graph.Graph, vs []VertexID) (*graph.Graph, map[VertexID]int) {
	idx := make(map[VertexID]int, len(vs))
	for i, v := range vs {
		idx[v] = i
	}
	sub := graph.New(len(vs), true)
	if g.Labels != nil {
		sub.Labels = make([]string, len(vs))
		for i, v := range vs {
			sub.Labels[i] = g.Labels[v]
		}
	}
	sub.In = make([][]graph.Edge, len(vs))
	for i, v := range vs {
		for _, e := range g.Out[v] {
			if j, ok := idx[e.Dst]; ok {
				sub.AddLabeledEdge(VertexID(i), VertexID(j), e.W, g.EdgeLabel(e))
			}
		}
	}
	return sub, idx
}
