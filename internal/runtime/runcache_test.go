package runtime

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"vcgraph/internal/graph"
)

// TestRunCacheFIFO: a taker gets the oldest buffer of its type, so a run
// that gives k buffers back in the order it took them gets them back in
// that order, whatever other types were kept in between.
func TestRunCacheFIFO(t *testing.T) {
	c := newRunCache(1 << 20)
	for i := 1; i <= 3; i++ {
		keep(c, make([]int, 0, i), 8*int64(i))
		keep(c, make([]float64, 0, 10*i), 80*int64(i))
	}
	for i := 1; i <= 3; i++ {
		s, ok := take[[]int](c)
		if !ok || cap(s) != i {
			t.Fatalf("take %d: cap %d ok %v, want cap %d", i, cap(s), ok, i)
		}
	}
	if _, ok := take[[]int](c); ok {
		t.Fatal("took a fourth []int from three kept")
	}
	if s, _ := take[[]float64](c); cap(s) != 10 {
		t.Fatalf("first []float64 has cap %d, want 10", cap(s))
	}
	if c.bytes != 80*5 {
		t.Fatalf("cache holds %d bytes, want %d", c.bytes, 80*5)
	}
	// A list that is never drained cycles through its array instead of
	// growing it.
	for i := 0; i < 1000; i++ {
		s, _ := take[[]float64](c)
		keep(c, s, 80)
	}
	if l := list[[]float64](c); cap(l.items) > 4 || len(l.items)-l.head != 2 {
		t.Fatalf("free list holds %d items in an array of %d after 1000 cycles, want 2 in at most 4", len(l.items)-l.head, cap(l.items))
	}
}

// TestRunCacheEvictsOldest: a buffer that does not fit evicts the
// oldest buffers of any type until it does.
func TestRunCacheEvictsOldest(t *testing.T) {
	c := newRunCache(100)
	a1, b1, a2 := make([]int8, 40), make([]int16, 20), make([]int8, 41)
	keep(c, a1, 40)
	keep(c, b1, 40)
	keep(c, a2, 41) // 121 > 100: a1, the oldest, goes
	if c.bytes != 81 {
		t.Fatalf("cache holds %d bytes, want 81", c.bytes)
	}
	keep(c, make([]int16, 30), 60) // 141 > 100: b1 goes, then 101: a2 goes
	if c.bytes != 60 {
		t.Fatalf("cache holds %d bytes, want 60", c.bytes)
	}
	if _, ok := take[[]int8](c); ok {
		t.Fatal("an evicted []int8 was taken")
	}
	if s, ok := take[[]int16](c); !ok || len(s) != 30 {
		t.Fatalf("took len %d ok %v, want the newest []int16 (len 30)", len(s), ok)
	}
}

// TestRunCacheDropsOversized: a buffer larger than the whole budget is
// never kept, and evicts nothing.
func TestRunCacheDropsOversized(t *testing.T) {
	c := newRunCache(100)
	keep(c, make([]byte, 50), 50)
	keep(c, make([]byte, 101), 101)
	if c.bytes != 50 {
		t.Fatalf("cache holds %d bytes, want 50", c.bytes)
	}
	if s, _ := take[[]byte](c); len(s) != 50 {
		t.Fatalf("took len %d, want the 50-byte buffer", len(s))
	}
	if _, ok := take[[]byte](c); ok {
		t.Fatal("the oversized buffer was kept")
	}
}

// TestRunCacheConcurrent: takers and keepers on several goroutines at
// once never hand one buffer to two holders, and the cache stays within
// its budget. Run it under -race.
func TestRunCacheConcurrent(t *testing.T) {
	const goroutines, rounds = 8, 500
	c := newRunCache(64 * 8)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s, ok := take[[]int64](c)
				if !ok {
					s = make([]int64, 0, 8)
				}
				if len(s) != 0 {
					t.Errorf("took a buffer holding %d values", len(s))
					return
				}
				s = append(s, int64(g)) // a shared buffer races here
				keep(c, s[:0], 8*int64(cap(s)))
			}
		}()
	}
	wg.Wait()
	if c.bytes > c.budget {
		t.Fatalf("cache holds %d bytes over its budget of %d", c.bytes, c.budget)
	}
}

// TestRunCacheMailboxReleaseEmpties: a mailbox released with messages
// still in its lanes and slabs gives back buffers that are empty and
// zeroed, so the cache holds no reference into the run's messages, and
// a mailbox built next takes them.
func TestRunCacheMailboxReleaseEmpties(t *testing.T) {
	EmptyRunCache()
	defer EmptyRunCache()
	owner := []int32{0, 1, 0, 1}
	one := 1
	mb := NewMailbox[*int](2, owner, nil)
	mb.SendAll(0, []VertexID{0, 1, 2, 3}, &one)
	mb.DeliverFaulty(0, 0, nil, nil)            // worker 0's slab holds &one twice
	mb.SendAll(1, []VertexID{0, 1, 2, 3}, &one) // three lanes hold entries
	mb.Release()
	mb.Release() // idempotent
	lanes, slabs := 0, 0
	for {
		s, ok := take[[]entry[*int]](runBuffers)
		if !ok {
			break
		}
		lanes++
		if len(s) != 0 || slices.ContainsFunc(s[:cap(s)], func(e entry[*int]) bool { return e != entry[*int]{} }) {
			t.Fatalf("lane came back with len %d or a stale entry", len(s))
		}
	}
	for {
		s, ok := take[[]*int](runBuffers)
		if !ok {
			break
		}
		slabs++
		if len(s) != 0 || slices.ContainsFunc(s[:cap(s)], func(m *int) bool { return m != nil }) {
			t.Fatalf("slab came back with len %d or a stale message", len(s))
		}
	}
	if lanes != 4 || slabs != 1 {
		t.Fatalf("got %d lanes and %d slabs back, want 4 and 1 (the buffers that grew)", lanes, slabs)
	}
}

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
	PutScratch(nil) // returning nil is a no-op, not a panic
	PutScratch(GetScratch())
}

// TestPutScratchDropsStreams returns a Scratch whose block caches hold
// a packed snapshot's streams: the cache must not keep them reachable.
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

// TestTakeArrayFitsAndZeroes: TakeArray hands out the smallest kept
// array that is long enough, zeroed, and never one of the growable
// buffers takeSlice hands out; KeepArray zeroes only the length it is
// given back at, which leaves the whole array zero.
func TestTakeArrayFitsAndZeroes(t *testing.T) {
	EmptyRunCache()
	defer EmptyRunCache()
	var kept [][]int64
	for _, n := range []int{300, 100, 200} {
		a := TakeArray[int64](n)
		for i := range a {
			a[i] = int64(i + 1)
		}
		kept = append(kept, a)
	}
	for _, a := range kept {
		KeepArray(a)
	}
	keepSlice(make([]int64, 0, 150)) // a growable buffer TakeArray must not take
	a := TakeArray[int64](150)
	if len(a) != 150 || cap(a) != 200 {
		t.Fatalf("took len %d cap %d, want len 150 from the 200-long array", len(a), cap(a))
	}
	if slices.ContainsFunc(a[:cap(a)], func(x int64) bool { return x != 0 }) {
		t.Fatal("a taken array holds a value its last run wrote")
	}
	if b := TakeArray[int64](301); cap(b) != 301 {
		t.Fatalf("took cap %d for 301, want a new array", cap(b))
	}
	if s := takeSlice[int64](); cap(s) != 150 {
		t.Fatalf("growable buffer has cap %d, want the 150 kept", cap(s))
	}
	if e := TakeArray[bool](0); e == nil {
		t.Fatal("TakeArray(0) is nil")
	}
}
