package runtime

import (
	"reflect"
	"testing"

	"vcgraph/internal/graph"
)

func TestScratchPoolLease(t *testing.T) {
	ss := GetScratches(4)
	if len(ss) != 4 {
		t.Fatalf("leased %d buffers, want 4", len(ss))
	}
	for i, s := range ss {
		if s == nil {
			t.Fatalf("entry %d is nil", i)
		}
	}
	PutScratches(ss)
	for i, s := range ss {
		if s != nil {
			t.Fatalf("entry %d not nilled on return", i)
		}
	}
	PutScratch(nil) // returning a nil lease is a no-op, not a panic
	PutScratch(GetScratch())
}

// TestPutScratchDropsStreams returns a Scratch whose block caches hold
// a packed snapshot's streams: the pool must not keep them reachable.
func TestPutScratchDropsStreams(t *testing.T) {
	c := graph.CompressCSR(graph.BuildCSR(graph.RandomDirected(50, 400, 1)))
	c.EnsureIn()
	s := GetScratch()
	for v := graph.VertexID(0); v < 50; v++ {
		c.OutSpan(v, s)
		c.InSpan(v, s)
	}
	caches := func() (held int) {
		for _, f := range []string{"oc", "ic"} {
			if !reflect.ValueOf(s).Elem().FieldByName(f).FieldByName("p").IsNil() {
				held++
			}
		}
		return held
	}
	if caches() != 2 {
		t.Fatal("sweep left a block cache empty")
	}
	PutScratch(s)
	if held := caches(); held != 0 {
		t.Fatalf("returned Scratch still holds %d streams", held)
	}
}
