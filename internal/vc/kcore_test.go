package vc

import (
	"reflect"
	"testing"
	"testing/quick"

	"vcgraph/internal/graph"
	"vcgraph/internal/seq"
)

// bruteCoreness peels the graph level by level: the k-core is the
// maximal subgraph with all degrees >= k.
func bruteCoreness(g *graph.Graph) []int32 {
	n := g.N()
	core := make([]int32, n)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	degree := func(v int) int {
		d := 0
		for _, e := range g.Out[v] {
			if alive[e.Dst] {
				d++
			}
		}
		return d
	}
	for k := int32(1); ; k++ {
		// Repeatedly strip vertices with alive-degree < k.
		for {
			removed := false
			for v := 0; v < n; v++ {
				if alive[v] && degree(v) < int(k) {
					alive[v] = false
					removed = true
				}
			}
			if !removed {
				break
			}
		}
		any := false
		for v := 0; v < n; v++ {
			if alive[v] {
				core[v] = k
				any = true
			}
		}
		if !any {
			return core
		}
	}
}

func TestKCoreKnownShapes(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int32 // uniform coreness
	}{
		{"complete", graph.Complete(8), 7},
		{"cycle", graph.Cycle(12), 2},
		{"tree", graph.RandomTree(50, 3), 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := KCore(tc.g, Config{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			for v, c := range res.Core {
				if c != tc.want {
					t.Fatalf("core[%d] = %d, want %d", v, c, tc.want)
				}
			}
		})
	}
}

func TestKCoreMatchesMatulaBeck(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(60, 180, seed)
		res, err := KCore(g, Config{Workers: 4})
		if err != nil {
			return false
		}
		var ops seq.Ops
		want := seq.KCore(g, &ops)
		for v := range want {
			if res.Core[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatulaBeckMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(25, 60, seed)
		var ops seq.Ops
		got := seq.KCore(g, &ops)
		want := bruteCoreness(g)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKCoreCliquePlusTail(t *testing.T) {
	// K5 with a pendant path: clique coreness 4, path coreness 1.
	g := graph.New(8, false)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.AddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	g.AddEdge(4, 5)
	g.AddEdge(5, 6)
	g.AddEdge(6, 7)
	res, err := KCore(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{4, 4, 4, 4, 4, 1, 1, 1}
	for v := range want {
		if res.Core[v] != want[v] {
			t.Fatalf("core = %v, want %v", res.Core, want)
		}
	}
	if res.Degeneracy != 4 {
		t.Fatalf("degeneracy = %d", res.Degeneracy)
	}
}

// TestKCoreMultigraph: parallel edges are adjacency entries, so a
// doubled triangle is a 4-core, as seq.KCore counts it, on both stores.
func TestKCoreMultigraph(t *testing.T) {
	g := graph.New(3, false)
	for r := 0; r < 2; r++ {
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		g.AddEdge(2, 0)
	}
	want := seq.KCore(g, &seq.Ops{})
	if !reflect.DeepEqual(want, []int32{4, 4, 4}) {
		t.Fatalf("seq.KCore = %v, want [4 4 4]", want)
	}
	for _, packed := range []bool{false, true} {
		res, err := KCore(g, Config{Workers: 2, PackedState: packed})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Core, want) {
			t.Fatalf("packed=%v: core = %v, want %v", packed, res.Core, want)
		}
	}
}

func TestKCoreRejectsDirected(t *testing.T) {
	if _, err := KCore(graph.RandomDirected(20, 60, 1), Config{PackedState: true}); err == nil {
		t.Fatal("k-core accepted a directed graph")
	}
}

func TestKCoreEmptyAndSingleton(t *testing.T) {
	res, err := KCore(graph.New(3, false), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Core {
		if c != 0 {
			t.Fatalf("isolated vertex coreness %d", c)
		}
	}
}
