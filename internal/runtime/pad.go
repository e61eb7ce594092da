package runtime

import "unsafe"

// LinePad is how far, in bytes, one worker's mutable state stays from
// every other worker's: two 64-byte cache lines, so that in a parallel
// phase no line, and no pair of lines the adjacent-line prefetcher
// fetches together, is written by two workers. Such a line moves
// between cores on every write, which can make a phase slower at two
// workers than at one. State written per vertex or per message lives
// in a PerWorker slot; a worker's own small arrays are Fenced. The
// layout changes speed only, never results.
const LinePad = 128

// Padded is one worker's slot of a PerWorker array: V behind LinePad
// bytes of padding.
type Padded[T any] struct {
	_ [LinePad]byte
	V T
}

// PerWorker returns n zeroed slots, one per worker. Each V starts
// LinePad bytes after the previous one ends and LinePad bytes into the
// allocation; a hidden trailing slot keeps the last V as far from the
// allocation's end.
func PerWorker[T any](n int) []Padded[T] {
	return make([]Padded[T], n+1)[:n:n]
}

// Fenced returns n zeroed elements lying at least LinePad bytes inside
// either end of their allocation: a worker-private array too small to
// own its cache lines, which the allocator would otherwise pack beside
// another worker's.
func Fenced[T any](n int) []T {
	k := 0
	if size := int(unsafe.Sizeof(*new(T))); size > 0 {
		k = (LinePad + size - 1) / size
	}
	return make([]T, n+2*k)[k : k+n : k+n]
}
