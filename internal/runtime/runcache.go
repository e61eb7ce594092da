package runtime

import (
	"sync"

	"vcgraph/internal/graph"
)

// The run-buffer cache. An engine run grows buffers whose size it only
// learns while it runs: pregel's mailbox lanes, inbox slabs and receiver
// lists, block-centric's per-block lanes and inboxes, every engine's
// span-decode scratches. A run takes them from this cache when it is
// built and gives them back, emptied, when it ends, so the capacity one
// run grew serves the next instead of being grown again as garbage. It
// also leases the per-vertex working arrays whose length a run knows
// when it is built (flags, counters, tags, index cells, bucket and
// worklist storage) and the arrays of every checkpoint frame: TakeArray
// hands out the smallest kept array that is long enough, and KeepArray
// zeroes what the run used and keeps it.
// Only what a run returns to its caller (its values) and what a caller
// may hold (a partition's owner array) is allocated per run.
// Unlike a pool of the sync package, a garbage collection does not
// empty it: the serving daemon and the benchmark collect between jobs,
// and a pool emptied there made every cold run regrow its buffers by
// doubling.
//
// The cache holds one first-in, first-out list per buffer type under one
// mutex. A taker gets the oldest buffer of its type: a run that takes k
// buffers of one type and gives them back in the same order gets the
// same k back next time (a last-in, first-out list would hand block 0
// block 1's buffers, and every run would regrow them). The cache keeps
// at most RunCacheBudget bytes; a buffer that does not fit evicts the
// oldest buffers of any type, and one larger than the budget is not
// kept at all.

// RunCacheBudget is the most bytes of buffers the cache keeps between
// runs. It holds, with room for concurrent jobs, what one pass of each
// benchmark workload leaves behind (seed 1, W = 2): 33.2 MiB after
// dense-rank (PageRank on four engines plus k-core on R-MAT n = 2^15,
// m = 250,000), most of it k-core's mailbox lanes and stores; 16.1 MiB after
// sparse-frontier (SSSP on every engine over a 160,000-vertex grid),
// nearly all of it per-vertex arrays; 2.1 MiB after ingest-packed and
// 2.8 MiB after serve-mixed, whose faulted jobs give their checkpoint
// frames back.
const RunCacheBudget = 64 << 20

// runBuffers is the process's cache.
var runBuffers = newRunCache(RunCacheBudget)

// runCache is a byte-bounded set of typed first-in, first-out free
// lists; take and keep are safe for concurrent use.
type runCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64             // held, summed over every list
	seq    uint64            // stamps each kept buffer, oldest lowest
	lists  map[any]evictable // keyed by the typed nil *T
}

// evictable is the type-erased view of one typed list that eviction
// needs.
type evictable interface {
	// oldest returns the stamp of the list's oldest buffer.
	oldest() (seq uint64, ok bool)
	// dropOldest forgets the oldest buffer and returns its size.
	dropOldest() int64
}

// cached is one kept buffer with its size and stamp.
type cached[T any] struct {
	buf   T
	bytes int64
	seq   uint64
}

// freeList is one type's free list: items[head:], oldest first. An
// emptied list restarts at the front of its array, and a full one
// slides its items there before growing, so a steady run of takes and
// keeps allocates nothing.
type freeList[T any] struct {
	items []cached[T]
	head  int
}

func (l *freeList[T]) oldest() (uint64, bool) {
	if l.head == len(l.items) {
		return 0, false
	}
	return l.items[l.head].seq, true
}

func (l *freeList[T]) dropOldest() int64 { return l.pop().bytes }

// push appends it as the newest item.
func (l *freeList[T]) push(it cached[T]) {
	if l.head > 0 && len(l.items) == cap(l.items) {
		n := copy(l.items, l.items[l.head:])
		clear(l.items[n:])
		l.items, l.head = l.items[:n], 0
	}
	l.items = append(l.items, it)
}

// pop removes and returns the oldest item, releasing its slot.
func (l *freeList[T]) pop() cached[T] {
	it := l.items[l.head]
	l.items[l.head] = cached[T]{}
	if l.head++; l.head == len(l.items) {
		l.items, l.head = l.items[:0], 0
	}
	return it
}

func newRunCache(budget int64) *runCache {
	return &runCache{budget: budget, lists: make(map[any]evictable)}
}

// list returns the free list of T, creating it. c.mu must be held.
func list[T any](c *runCache) *freeList[T] {
	key := any((*T)(nil))
	if l, ok := c.lists[key]; ok {
		return l.(*freeList[T])
	}
	l := new(freeList[T])
	c.lists[key] = l
	return l
}

// remove removes and returns the item at index i, keeping the order of
// the others.
func (l *freeList[T]) remove(i int) cached[T] {
	if i == l.head {
		return l.pop()
	}
	it := l.items[i]
	copy(l.items[i:], l.items[i+1:])
	l.items[len(l.items)-1] = cached[T]{}
	l.items = l.items[:len(l.items)-1]
	return it
}

// take removes and returns the oldest buffer of type T, if any.
func take[T any](c *runCache) (buf T, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := list[T](c)
	if l.head == len(l.items) {
		return buf, false
	}
	it := l.pop()
	c.bytes -= it.bytes
	return it.buf, true
}

// takeFit removes and returns the smallest array of T's array list
// whose capacity is at least n, if any.
func takeFit[T any](c *runCache, n int) ([]T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := list[array[T]](c)
	best := -1
	for i := l.head; i < len(l.items); i++ {
		if k := cap(l.items[i].buf); k >= n && (best < 0 || k < cap(l.items[best].buf)) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	it := l.remove(best)
	c.bytes -= it.bytes
	return it.buf, true
}

// keep adds buf, holding the given bytes, as the newest buffer of its
// type, first evicting the oldest buffers of any type until it fits. A
// buffer larger than the budget is dropped.
func keep[T any](c *runCache, buf T, bytes int64) {
	if bytes > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.bytes+bytes > c.budget {
		var victim evictable
		var first uint64
		for _, l := range c.lists {
			if s, ok := l.oldest(); ok && (victim == nil || s < first) {
				victim, first = l, s
			}
		}
		c.bytes -= victim.dropOldest()
	}
	c.seq++
	list[T](c).push(cached[T]{buf: buf, bytes: bytes, seq: c.seq})
	c.bytes += bytes
}

// TakeRunBuffer returns the oldest cached buffer of type T, or false
// when the cache holds none. A run takes its buffers when it is built.
func TakeRunBuffer[T any]() (T, bool) { return take[T](runBuffers) }

// KeepRunBuffer gives a buffer, holding the given bytes, to the cache
// when its run ends. The caller must have emptied it: the cache keeps
// no reference into a finished run's values, and must not touch it
// afterwards.
func KeepRunBuffer[T any](buf T, bytes int64) { keep(runBuffers, buf, bytes) }

// EmptyRunCache drops every cached buffer; later runs grow their own.
func EmptyRunCache() {
	c := runBuffers
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.lists)
	c.bytes = 0
}

// takeSlice returns an empty slice whose backing array was cached, or
// nil.
func takeSlice[T any]() []T {
	s, _ := TakeRunBuffer[[]T]()
	return s
}

// keepSlice zeroes s's whole backing array and gives it to the cache.
func keepSlice[T any](s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	KeepRunBuffer(s[:0], int64(cap(s))*SizeOf[T]())
}

// array is the cache's key type for arrays taken by length, which keeps
// them apart from the growable []T buffers takeSlice hands out oldest
// first.
type array[T any] []T

// TakeArray returns a zeroed []T of length n: the smallest kept array
// whose capacity is at least n, resliced, or a new one. It is never
// nil, and an empty one holds no cached array. A run takes the
// per-vertex arrays it does not return to its caller when it is built,
// and gives each back with KeepArray when it ends; a checkpoint frame's
// arrays go back when the driver retires the frame.
func TakeArray[T any](n int) []T {
	if n == 0 {
		return []T{}
	}
	if a, ok := takeFit[T](runBuffers, n); ok {
		return a[:n]
	}
	return make([]T, n)
}

// KeepArray zeroes a and gives its backing array to the cache. a must
// be a slice TakeArray returned, at the length it was taken: the
// elements past it were zero when taken and must not have been
// written, so zeroing a alone leaves the whole array zero, as every
// kept array is. The caller must not touch a afterwards.
func KeepArray[T any](a []T) {
	if cap(a) == 0 {
		return
	}
	clear(a)
	KeepRunBuffer(array[T](a[:0]), int64(cap(a))*SizeOf[T]())
}

// GetScratch takes one span-decode buffer from the cache. Packed-
// snapshot span decoding needs a worker-local buffer that grows to the
// graph's maximum degree.
func GetScratch() *graph.Scratch {
	if s, ok := TakeRunBuffer[*graph.Scratch](); ok {
		return s
	}
	return new(graph.Scratch)
}

// PutScratch gives a buffer back to the cache with its block caches
// emptied, so the cache keeps no closed graph's stream reachable. The
// caller must not hold any span decoded into it afterwards.
func PutScratch(s *graph.Scratch) {
	if s != nil {
		s.Reset()
		KeepRunBuffer(s, s.Bytes())
	}
}

// GetScratches takes n buffers — one per worker or block.
func GetScratches(n int) []*graph.Scratch {
	ss := make([]*graph.Scratch, n)
	for i := range ss {
		ss[i] = GetScratch()
	}
	return ss
}

// PutScratches gives every buffer back and nils the entries so a late
// use fails loudly instead of racing the next holder.
func PutScratches(ss []*graph.Scratch) {
	for i, s := range ss {
		PutScratch(s)
		ss[i] = nil
	}
}
