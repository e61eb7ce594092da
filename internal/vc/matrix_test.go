package vc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"vcgraph/internal/async"
	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/runtime"
	"vcgraph/internal/seq"
)

// drawGraphs draws (generator, n, seed) triples from a fixed stream:
// every generator twice, sizes and seeds random. All are undirected
// (async and gas pull over out = in) and weighted (SSSP).
func drawGraphs() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(20260925))
	out := map[string]*graph.Graph{}
	gens := []string{"rmat", "powerlaw", "grid", "path", "disconnected"}
	for i := 0; i < 2*len(gens); i++ {
		gen, n, seed := gens[i%len(gens)], 16+rng.Intn(150), rng.Int63n(1<<30)
		var g *graph.Graph
		switch gen {
		case "rmat":
			scale := 4 + rng.Intn(4)
			n = 1 << scale
			g = graph.RMAT(scale, 3*n, seed)
		case "powerlaw":
			g = graph.PreferentialAttachment(n, 3, seed)
		case "grid":
			rows := 2 + rng.Intn(10)
			n = rows * (2 + rng.Intn(10))
			g = graph.Grid(rows, n/rows)
		case "path":
			g = graph.Path(n)
		case "disconnected":
			// A random simple half, an isolated vertex n/2, and a
			// chain.
			g = graph.New(n, false)
			seen := map[[2]int]bool{}
			for e := 0; e < n; e++ {
				u, v := rng.Intn(n/2), rng.Intn(n/2)
				if u > v {
					u, v = v, u
				}
				if u != v && !seen[[2]int{u, v}] {
					seen[[2]int{u, v}] = true
					g.AddEdge(graph.VertexID(u), graph.VertexID(v))
				}
			}
			for v := n/2 + 1; v+1 < n; v++ {
				g.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
			}
		}
		graph.RandomWeights(g, seed+1)
		out[fmt.Sprintf("%s/n=%d/seed=%d", gen, n, seed)] = g
	}
	return out
}

// drawDirected draws two random directed graphs and one oriented
// R-MAT graph from a fixed stream, weighted (SSSP). Only
// TestMatrixAgainstSeq walks them: every row outside refusesDirected
// has a directed meaning and must match seq. Each R-MAT edge points
// one way by a coin, so its hubs send and receive along hundreds of
// edges and sender-side combining folds many sends into one slot.
func drawDirected() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(20261017))
	out := map[string]*graph.Graph{}
	for _, n := range []int{64, 200} {
		m, seed := n*(1+rng.Intn(4)), rng.Int63n(1<<30)
		g := graph.RandomDirected(n, m, seed)
		graph.RandomWeights(g, seed+1)
		out[fmt.Sprintf("directed/n=%d/m=%d/seed=%d", n, m, seed)] = g
	}
	m, seed := 1024, rng.Int63n(1<<30)
	r := graph.RMAT(7, m, seed)
	g := graph.New(r.N(), true)
	for u, es := range r.Out {
		src := graph.VertexID(u)
		for _, e := range es {
			switch {
			case e.Dst < src: // each undirected edge once
			case rng.Intn(2) == 0:
				g.AddEdge(src, e.Dst)
			default:
				g.AddEdge(e.Dst, src)
			}
		}
	}
	g.EnsureIn()
	g.SortAdjacency()
	graph.RandomWeights(g, seed+1)
	out[fmt.Sprintf("directed/rmat/scale=7/m=%d/seed=%d", m, seed)] = g // sorts after the directed/n= draws
	return out
}

// refusesDirected lists the rows that fail on a directed graph with
// async.ErrDirected: the async and inc rows of cc and sssp pull over
// out-spans, which are the in-neighborhood only on an undirected graph;
// min-label cc on any engine labels ancestors rather than components;
// and k-core would hear from in-neighbors but count out-neighbors.
var refusesDirected = map[string][]string{
	"cc":    {"async", EngineInc, "pregel", "gas", "blockcentric"},
	"sssp":  {"async", EngineInc},
	"kcore": {"pregel"},
}

// matrixCase is one algorithm's oracle on one graph: the arguments and
// the answer.
type matrixCase struct {
	args Args
	want []float64
	tol  float64
}

// pageRankCase is k folds checked against seq.PageRank.
func pageRankCase(g *graph.Graph, k int, tol float64) matrixCase {
	const alpha = 0.85
	return matrixCase{
		args: Args{Alpha: alpha, K: k, Eps: 1e-9},
		want: seq.PageRank(g, alpha, k, &seq.Ops{}),
		tol:  tol,
	}
}

// sortedKeys lists the rows' keys in algorithm/engine order, so
// subtests run and are named in a fixed order.
func sortedKeys(rows map[Key]Row) []Key {
	keys := make([]Key, 0, len(rows))
	for key := range rows {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].Algo+"/"+keys[i].Engine < keys[j].Algo+"/"+keys[j].Engine
	})
	return keys
}

func matrixCases(g *graph.Graph) map[string]matrixCase {
	cases := map[string]matrixCase{
		// 200 folds is the fixpoint to 1e-14, so the fixed-iteration
		// and the eps-converged rows share one oracle.
		"pagerank": pageRankCase(g, 200, 1e-6),
		"sssp":     {args: Args{Src: 0}, want: seq.Dijkstra(g, 0, &seq.Ops{})},
	}
	if !g.Directed { // every cc and kcore row refuses a directed graph
		cases["cc"] = matrixCase{want: floats(seq.Components(g, &seq.Ops{}))}
		cases["kcore"] = matrixCase{want: floats(seq.KCore(g, &seq.Ops{}))}
	}
	return cases
}

func checkValues(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d values, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] && !(math.Abs(got[v]-want[v]) <= tol) {
			t.Fatalf("value[%d] = %v, want %v (tol %g)", v, got[v], want[v], tol)
		}
	}
}

// TestMatrixAgainstSeq walks every row of the engine matrix — so a new
// row is tested by existing — over drawn graphs and compares it with
// the sequential baselines. On the directed draws it skips the rows
// TestMatrixRefusesDirectedPull checks.
func TestMatrixAgainstSeq(t *testing.T) {
	rows := map[Key]Row{}
	for key, row := range Matrix {
		rows[key] = row
	}
	for engine, row := range FixedKPageRank {
		rows[Key{"pagerank/fixedk", engine}] = row
	}
	keys := sortedKeys(rows)
	graphs := drawGraphs()
	var names []string // each draw sorted, the directed one last
	for _, draw := range []map[string]*graph.Graph{graphs, drawDirected()} {
		first := len(names)
		for name, g := range draw {
			graphs[name] = g
			names = append(names, name)
		}
		sort.Strings(names[first:])
	}
	workers := 0
	for _, name := range names {
		g := graphs[name]
		cases := matrixCases(g)
		cases["pagerank/fixedk"] = pageRankCase(g, 20, 1e-12)
		for _, key := range keys {
			if g.Directed && slices.Contains(refusesDirected[key.Algo], key.Engine) {
				continue
			}
			row := rows[key]
			c, ok := cases[key.Algo]
			if !ok {
				t.Fatalf("matrix algorithm %q has no sequential oracle in this test", key.Algo)
			}
			// The inc rows ignore Workers and take no turn in the
			// rotation, so every other row keeps its worker count and
			// subtest name.
			if key.Engine != EngineInc {
				workers = workers%4 + 1
			}
			env := Env{Config: Config{Workers: workers}}
			t.Run(fmt.Sprintf("%s/%s/%s/w%d", key.Algo, key.Engine, name, workers), func(t *testing.T) {
				got, stats, err := row(g, c.args, env)()
				if err != nil {
					t.Fatalf("cold: %v", err)
				}
				if stats == nil || stats.NumSupersteps() == 0 {
					t.Fatalf("cold: no statistics")
				}
				checkValues(t, got, c.want, c.tol)
			})
		}
	}
}

// TestMatrixPinsReleased: a prepared row holds one pin until it runs.
func TestMatrixPinsReleased(t *testing.T) {
	g := graph.Grid(4, 4)
	for key, row := range Matrix {
		if _, _, err := row(g, Args{Alpha: 0.85, K: 3, Eps: 1e-6}, Env{})(); err != nil {
			t.Fatalf("%v: %v", key, err)
		}
		if g.Pins() != 0 {
			t.Fatalf("%v left %d snapshot pins", key, g.Pins())
		}
		if d := runtime.Default(); d.InFlight() != 0 || d.QueueLen() != 0 {
			t.Fatalf("%v left a job running: inflight %d, queued %d", key, d.InFlight(), d.QueueLen())
		}
	}
}

// TestMatrixRefusesDirectedPull: every row in refusesDirected fails on
// a directed graph with async.ErrDirected and holds no pin. The auto cc
// path refuses through the row it plans.
func TestMatrixRefusesDirectedPull(t *testing.T) {
	g := graph.RandomDirected(200, 400, 1)
	for algo, engines := range refusesDirected {
		for _, engine := range engines {
			_, _, err := Matrix[Key{algo, engine}](g, Args{Src: 0}, Env{})()
			if !errors.Is(err, async.ErrDirected) {
				t.Errorf("%s/%s on a directed graph: err = %v", algo, engine, err)
			}
			if g.Pins() != 0 {
				t.Fatalf("%s/%s left %d snapshot pins", algo, engine, g.Pins())
			}
		}
	}
	if _, _, err := PrepareAuto(g, "cc", Args{}, AutoConfig{})(); !errors.Is(err, async.ErrDirected) {
		t.Errorf("cc/auto on a directed graph: err = %v", err)
	}
	if g.Pins() != 0 {
		t.Fatalf("cc/auto left %d snapshot pins", g.Pins())
	}
}

// TestIncColumnIsCCAndSSSP: the inc column holds only the programs
// whose fixpoint is unique, so a warm drain from any seed superset
// lands on the cold answer. {pagerank, inc} is no key: exact
// incremental PageRank ran slower than a recompute.
func TestIncColumnIsCCAndSSSP(t *testing.T) {
	var algos []string
	for _, key := range sortedKeys(Matrix) {
		if key.Engine == EngineInc {
			algos = append(algos, key.Algo)
		}
	}
	if !slices.Equal(algos, []string{"cc", "sssp"}) {
		t.Fatalf("inc column = %v, want [cc sssp]", algos)
	}
}

// TestIncRowsResumeUnmutated: an inc row resumed at the epoch its Prior
// was left at has nothing to repair — it resumes warm, does no work and
// answers the Prior's values bit for bit.
func TestIncRowsResumeUnmutated(t *testing.T) {
	args := Args{Src: 0}
	g := graph.PreferentialAttachment(120, 3, 7)
	graph.RandomWeights(g, 8)
	for _, algo := range []string{"cc", "sssp"} {
		row := Matrix[Key{algo, EngineInc}]
		var prior Prior
		want, _, err := row(g, args, Env{Prior: &prior})()
		if err != nil {
			t.Fatalf("%s cold: %v", algo, err)
		}
		got, stats, err := row(g, args, Env{Prior: &prior})()
		if err != nil {
			t.Fatalf("%s resume: %v", algo, err)
		}
		if prior.Cold || stats.TotalWork != 0 {
			t.Fatalf("%s resume: Cold=%v with %d work units, want warm with none", algo, prior.Cold, stats.TotalWork)
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%s value[%d] = %v resumed, %v cold", algo, v, got[v], want[v])
			}
		}
	}
}

// TestIncRowsResume: an inc row run cold into a Prior and resumed from
// it across one seeded mixed insert/delete batch answers, warm, bit for
// bit what a cold inc row answers on the mutated graph. The Prior is
// the only thing carried between the runs: CC labels as floats, SSSP
// distances with unreachable as +Inf. A row
// must resume alike from either spelling of an unreachable distance —
// same values, same work — and exit with +Inf.
func TestIncRowsResume(t *testing.T) {
	args := Args{Src: 0}
	unreached := 0
	for _, algo := range []string{"cc", "sssp"} {
		row := Matrix[Key{algo, EngineInc}]
		graphs := drawGraphs() // fresh: the batch below mutates them
		names := make([]string, 0, len(graphs))
		for name := range graphs {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			g := graphs[name]
			t.Run(algo+"/"+name, func(t *testing.T) {
				var prior Prior
				if _, _, err := row(g, args, Env{Prior: &prior})(); err != nil {
					t.Fatalf("cold: %v", err)
				}
				if !prior.Cold || prior.Epoch != g.Epoch() {
					t.Fatalf("cold run left Cold=%v at epoch %d, graph at %d", prior.Cold, prior.Epoch, g.Epoch())
				}
				finitePrior := prior
				finitePrior.Values = make([]float64, len(prior.Values))
				for v, x := range prior.Values {
					if math.IsInf(x, 1) {
						x = Unreachable
					}
					finitePrior.Values[v] = x
				}
				mustMutate(t, g, mixedBatch(g, rand.New(rand.NewSource(int64(i))), 8)...)
				want, _, err := row(g, args, Env{})()
				if err != nil {
					t.Fatalf("recompute: %v", err)
				}
				var work []int64
				for _, p := range []*Prior{&prior, &finitePrior} {
					got, stats, err := row(g, args, Env{Prior: p})()
					if err != nil {
						t.Fatalf("warm: %v", err)
					}
					if p.Cold {
						t.Fatal("resume fell back to a cold run")
					}
					if len(got) != len(want) {
						t.Fatalf("%d values, want %d", len(got), len(want))
					}
					for v := range want {
						if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
							t.Fatalf("value[%d] = %v warm, %v cold", v, got[v], want[v])
						}
						if got[v] == Unreachable {
							t.Fatalf("value[%d] is the finite sentinel; a row exits with +Inf", v)
						}
					}
					work = append(work, stats.TotalWork)
				}
				if work[0] != work[1] {
					t.Fatalf("resumed with %d work units from +Inf, %d from Unreachable", work[0], work[1])
				}
				for _, x := range want {
					if math.IsInf(x, 1) {
						unreached++
					}
				}
				if g.Pins() != 0 {
					t.Fatalf("%d snapshot pins left", g.Pins())
				}
			})
		}
	}
	if unreached == 0 {
		t.Error("no drawn graph left an SSSP vertex unreachable; the +Inf path went untested")
	}
}

// mixedBatch draws k mutations, about half inserts of weighted random
// edges and half deletes of edges g has.
func mixedBatch(g *graph.Graph, rng *rand.Rand, k int) []graph.Mutation {
	var live [][2]VertexID
	c := g.Pin()
	for u := 0; u < g.N(); u++ {
		c.ForEachOut(VertexID(u), func(v VertexID, _ float64) {
			if VertexID(u) <= v {
				live = append(live, [2]VertexID{VertexID(u), v})
			}
		})
	}
	g.Unpin(c)
	muts := make([]graph.Mutation, 0, k)
	for len(muts) < k {
		if rng.Intn(2) == 0 || len(live) == 0 {
			u, v := VertexID(rng.Intn(g.N())), VertexID(rng.Intn(g.N()))
			if u != v {
				muts = append(muts, ins(u, v, 0.5+3*rng.Float64()))
			}
			continue
		}
		j := rng.Intn(len(live))
		muts = append(muts, del(live[j][0], live[j][1]))
		live = append(live[:j], live[j+1:]...)
	}
	return muts
}

// TestMatrixDeterministic: every row is reproducible. Run twice on the
// same graph, worker count and fault plan, a row answers the same values
// bit for bit and reports the same bsp.Stats — every superstep's
// per-worker work, messages and frontier, the model cost and the
// recovery counters — apart from the heap and allocation deltas, which
// measure the process rather than the run.
func TestMatrixDeterministic(t *testing.T) {
	graphs := drawGraphs()
	var names []string
	for _, prefix := range []string{"powerlaw/", "rmat/"} {
		var first string
		for name := range graphs {
			if strings.HasPrefix(name, prefix) && (first == "" || name < first) {
				first = name
			}
		}
		names = append(names, first)
	}
	args := Args{Src: 0, Alpha: 0.85, K: 20, Eps: 1e-6}
	for _, name := range names {
		g := graphs[name]
		for _, key := range sortedKeys(Matrix) {
			for _, workers := range []int{1, 2, 4} {
				for _, faults := range []int64{0, 7} {
					cfg := Config{Workers: workers}
					if faults != 0 {
						cfg.CheckpointEvery, cfg.FullSnapshotEvery = 1, 3
						cfg.Faults = runtime.NewFaultPlan(faults)
					}
					t.Run(fmt.Sprintf("%s/%s/%s/w%d/faults=%d", key.Algo, key.Engine, name, workers, faults), func(t *testing.T) {
						var vals [2][]float64
						var stats [2]*bsp.Stats
						for i := range vals {
							var err error
							vals[i], stats[i], err = Matrix[key](g, args, Env{Config: cfg})()
							if err != nil {
								t.Fatal(err)
							}
							stats[i] = counts(stats[i])
						}
						for v := range vals[0] {
							if math.Float64bits(vals[0][v]) != math.Float64bits(vals[1][v]) {
								t.Fatalf("value[%d] = %v, then %v", v, vals[0][v], vals[1][v])
							}
						}
						if !reflect.DeepEqual(stats[0], stats[1]) {
							t.Fatalf("stats differ between two runs: work %d vs %d, messages %d vs %d, model time %v vs %v",
								stats[0].TotalWork, stats[1].TotalWork, stats[0].TotalMessages, stats[1].TotalMessages,
								stats[0].MeasuredTime, stats[1].MeasuredTime)
						}
					})
				}
			}
		}
	}
}
