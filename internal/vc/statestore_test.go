package vc

import (
	"math/rand"
	"sync"
	"testing"
)

func TestPackedIntsRoundTrip(t *testing.T) {
	for _, domain := range []uint64{1, 2, 3, 5, 17, 255, 256, 1 << 20} {
		rng := rand.New(rand.NewSource(int64(domain)))
		n := 257
		p := NewPackedInts(n, domain)
		d := NewDenseStore(n)
		if p.Len() != n || d.Len() != n {
			t.Fatalf("domain %d: Len = %d/%d, want %d", domain, p.Len(), d.Len(), n)
		}
		for i := 0; i < n; i++ {
			if p.Get(i) != 0 {
				t.Fatalf("domain %d: fresh store entry %d = %d, want 0", domain, i, p.Get(i))
			}
		}
		// Random writes, including rewrites, mirrored against the dense
		// reference.
		for k := 0; k < 4*n; k++ {
			i := rng.Intn(n)
			x := rng.Uint64() % domain
			p.Set(i, x)
			d.Set(i, x)
		}
		for i := 0; i < n; i++ {
			if p.Get(i) != d.Get(i) {
				t.Fatalf("domain %d: entry %d = %d, dense says %d", domain, i, p.Get(i), d.Get(i))
			}
		}
		if p.SizeBytes() > d.SizeBytes() {
			t.Fatalf("domain %d: packed %d B > dense %d B", domain, p.SizeBytes(), d.SizeBytes())
		}
	}
}

func TestPackedIntsWidth(t *testing.T) {
	for _, tc := range []struct {
		domain uint64
		width  uint
	}{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {256, 8}, {257, 9}, {1 << 32, 32}} {
		if w := NewPackedInts(8, tc.domain).Width(); w != tc.width {
			t.Errorf("domain %d: width = %d, want %d", tc.domain, w, tc.width)
		}
	}
}

func TestPackedIntsDomainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set above the domain did not panic")
		}
	}()
	p := NewPackedInts(4, 4) // 2-bit entries
	p.Set(0, 4)
}

func TestPackedIntsCloneCopy(t *testing.T) {
	p := NewPackedInts(10, 100)
	for i := 0; i < 10; i++ {
		p.Set(i, uint64(i*7))
	}
	c := p.Clone()
	p.Set(3, 99)
	if c.Get(3) != 21 {
		t.Fatalf("clone aliases original: entry 3 = %d, want 21", c.Get(3))
	}
	p.CopyFrom(c)
	if p.Get(3) != 21 {
		t.Fatalf("CopyFrom: entry 3 = %d, want 21", p.Get(3))
	}
}

// TestPackedIntsWordSharing hammers entries that share words from
// different goroutines — the engines' situation when vertices of
// different workers land in one 64-bit word. Run under -race this also
// proves the CAS/atomic-load discipline.
func TestPackedIntsWordSharing(t *testing.T) {
	const n, workers, rounds = 64, 8, 2000
	p := NewPackedInts(n, 64) // 6-bit entries: ~10 per word
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker w owns entries i with i % workers == w (hash
			// partition): maximal word interleaving.
			for r := 1; r <= rounds; r++ {
				for i := w; i < n; i += workers {
					p.Set(i, uint64((i+r)%64))
					if got, want := p.Get(i), uint64((i+r)%64); got != want {
						t.Errorf("entry %d = %d, want %d", i, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got, want := p.Get(i), uint64((i+rounds)%64); got != want {
			t.Fatalf("final entry %d = %d, want %d", i, got, want)
		}
	}
}

func TestStateStoreFactory(t *testing.T) {
	if _, ok := NewStateStore(true, 5, 10).(*PackedInts); !ok {
		t.Error("NewStateStore(packed) did not return a PackedInts")
	}
	if _, ok := NewStateStore(false, 5, 10).(*DenseStore); !ok {
		t.Error("NewStateStore(dense) did not return a DenseStore")
	}
}
