package vc

import (
	"reflect"
	"testing"

	"vcgraph/internal/graph"
)

// FuzzMutationScript drives the evolving-graph stack end to end from
// raw bytes: the input decodes to a sequence of mutation batches
// (inserts with derived weights, deletes that may or may not exist —
// invalid batches must be rejected atomically), and after every applied
// batch the incrementally maintained CC/SSSP answers are
// differentially checked against from-scratch runs on the mutated
// graph. Any divergence — a wrong seed set, a delta-overlay
// enumeration mismatch — is a crash the fuzzer can minimize.
func FuzzMutationScript(f *testing.F) {
	f.Add(int64(1), []byte{2, 0, 1, 5, 1, 3, 9, 4, 2, 2})
	f.Add(int64(3), []byte{1, 7, 3, 3, 0, 2, 2, 5, 5, 8, 8, 1, 1, 0})
	f.Add(int64(9), []byte{0, 1, 1, 2, 4, 4, 6, 6, 3, 1, 2, 3, 0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		const n = 14
		g := graph.RandomConnected(n, 24, seed)
		graph.RandomWeights(g, seed+1)
		g.RebuildEvery = 5 // cross rebuild boundaries often
		var ccSt, ssSt Prior
		check := func() {
			inc, _, err := incRow(g, "cc", Args{}, &ccSt, Config{})
			if err != nil {
				t.Fatalf("incremental CC: %v", err)
			}
			if labels := asyncCC(t, g); !reflect.DeepEqual(inc, labels) {
				t.Fatalf("incremental CC %v != from-scratch %v", inc, labels)
			}
			inc, _, err = incRow(g, "sssp", Args{Src: 0}, &ssSt, Config{})
			if err != nil {
				t.Fatalf("incremental SSSP: %v", err)
			}
			if dist := asyncSSSP(t, g, 0); !reflect.DeepEqual(inc, dist) {
				t.Fatalf("incremental SSSP %v != from-scratch %v", inc, dist)
			}
		}
		check() // cold baselines
		off, batches := 0, 0
		for off+3 <= len(script) && batches < 8 {
			size := 1 + int(script[off]%3)
			off++
			var muts []graph.Mutation
			for j := 0; j < size && off+3 <= len(script); j++ {
				op, bu, bv := script[off], script[off+1], script[off+2]
				off += 3
				u, v := VertexID(int(bu)%n), VertexID(int(bv)%n)
				if op%2 == 0 {
					muts = append(muts, graph.Mutation{Op: graph.InsertEdge, U: u, V: v, W: 0.25 + float64(op%8)})
				} else {
					muts = append(muts, graph.Mutation{Op: graph.DeleteEdge, U: u, V: v})
				}
			}
			if len(muts) == 0 {
				break
			}
			epoch := g.Epoch()
			if _, err := g.ApplyMutations(muts); err != nil {
				// Rejected batches must be atomic: no epoch bump, no
				// partial application visible to the next query.
				if g.Epoch() != epoch {
					t.Fatalf("rejected batch bumped epoch: %v", err)
				}
				continue
			}
			batches++
			check()
		}
	})
}
