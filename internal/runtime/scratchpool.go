package runtime

import (
	"sync"

	"vcgraph/internal/graph"
)

// Scratch pooling: packed-snapshot span decoding needs a worker-local
// buffer that grows to the graph's maximum degree. The buffers are tiny
// but the serving workloads (the daemon, incremental queries, engine
// "auto" jobs) construct engines in a steady stream, and re-growing a
// fresh buffer per run is avoidable garbage — so every engine leases
// its decode buffers here and returns them when the run ends, keeping
// the grown capacity alive across runs.

var scratchPool = sync.Pool{New: func() any { return new(graph.Scratch) }}

// GetScratch leases one span-decode buffer from the shared pool.
func GetScratch() *graph.Scratch { return scratchPool.Get().(*graph.Scratch) }

// PutScratch returns a leased buffer to the pool with its block caches
// emptied, so the pool keeps no closed graph's stream reachable. The
// caller must not hold any span decoded into it afterwards.
func PutScratch(s *graph.Scratch) {
	if s != nil {
		s.Reset()
		scratchPool.Put(s)
	}
}

// GetScratches leases n buffers — one per worker or block.
func GetScratches(n int) []*graph.Scratch {
	ss := make([]*graph.Scratch, n)
	for i := range ss {
		ss[i] = GetScratch()
	}
	return ss
}

// PutScratches returns every leased buffer and nils the entries so a
// late use fails loudly instead of racing the next leaseholder.
func PutScratches(ss []*graph.Scratch) {
	for i, s := range ss {
		PutScratch(s)
		ss[i] = nil
	}
}
