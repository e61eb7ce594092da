package graph

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randomDsts(n int, seed int64) []VertexID {
	rng := rand.New(rand.NewSource(seed))
	out := make([]VertexID, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0: // small ascending run, the sorted-adjacency common case
			if i > 0 {
				out[i] = out[i-1] + VertexID(rng.Intn(8))
			} else {
				out[i] = VertexID(rng.Intn(64))
			}
		case 1: // arbitrary positive
			out[i] = VertexID(rng.Int31())
		case 2: // extremes
			ext := []VertexID{0, 1, math.MaxInt32, math.MinInt32, -1}
			out[i] = ext[rng.Intn(len(ext))]
		default: // builder-order jumps, including backwards
			out[i] = VertexID(rng.Int31()) - VertexID(rng.Int31())
		}
	}
	return out
}

func TestPackedEdgesRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 1000} {
		src := randomDsts(n, int64(n)+1)
		p := packEdges(src)
		if err := p.validate(); err != nil {
			t.Fatalf("n=%d: validate: %v", n, err)
		}
		got := p.appendRange(nil, 0, int32(n))
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d entries", n, len(got))
		}
		for i := range src {
			if got[i] != src[i] {
				t.Fatalf("n=%d: entry %d = %d, want %d", n, i, got[i], src[i])
			}
			if at := p.at(int32(i)); at != src[i] {
				t.Fatalf("n=%d: at(%d) = %d, want %d", n, i, at, src[i])
			}
		}
		// Sub-ranges, including block-straddling ones.
		for _, r := range [][2]int{{0, n}, {n / 3, 2 * n / 3}, {n / 2, n/2 + min(n/2, 70)}} {
			lo, hi := int32(r[0]), int32(r[1])
			if hi > int32(n) {
				hi = int32(n)
			}
			sub := p.appendRange(nil, lo, hi)
			for i, d := range sub {
				if d != src[int(lo)+i] {
					t.Fatalf("n=%d range [%d,%d): entry %d mismatch", n, lo, hi, i)
				}
			}
			j := lo
			p.forEachRange(lo, hi, func(i int32, d VertexID) {
				if i != j || d != src[i] {
					t.Fatalf("n=%d forEachRange [%d,%d): got (%d,%d) want (%d,%d)", n, lo, hi, i, d, j, src[j])
				}
				j++
			})
			if j != hi {
				t.Fatalf("n=%d forEachRange [%d,%d): stopped at %d", n, lo, hi, j)
			}
		}
	}
}

func TestDecodeEdgeBlockRejectsGarbage(t *testing.T) {
	var out [edgeBlockLen]VertexID
	cases := []struct {
		name string
		data []byte
		cnt  int
	}{
		{"truncated", []byte{0x80}, 1},
		{"empty-want-one", nil, 1},
		{"overlong-varint", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 1},
		{"overflow-top-bits", []byte{0xff, 0xff, 0xff, 0xff, 0x7f}, 1},
		{"count-negative", []byte{0x00}, -1},
		{"count-too-big", []byte{0x00}, edgeBlockLen + 1},
	}
	for _, tc := range cases {
		if _, err := decodeEdgeBlock(tc.data, tc.cnt, &out); err == nil {
			t.Errorf("%s: decode accepted garbage", tc.name)
		}
	}
	// Wrapping delta chains are well-defined, not errors: the decoder
	// mirrors the encoder's int32 wraparound so every sequence
	// round-trips (TestPackedEdgesRoundTrip covers the extremes).
	enc := appendUvarint32(nil, zigzag(math.MaxInt32))
	enc = appendUvarint32(enc, zigzag(1))
	if _, err := decodeEdgeBlock(enc, 2, &out); err != nil {
		t.Errorf("wrapping delta chain rejected: %v", err)
	}
	if out[1] != VertexID(math.MinInt32) {
		t.Errorf("wrapped decode = %d, want MinInt32", out[1])
	}
}

// FuzzVarintBlockCodec drives the block codec both ways: any int32
// sequence must round-trip exactly, and arbitrary bytes handed to the
// decoder must produce an error or a valid decode — never a panic and
// never an out-of-bounds read.
func FuzzVarintBlockCodec(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{1, 2, 3, 4, 250, 251, 252, 253}, 3)
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 1)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}, 1)
	f.Fuzz(func(t *testing.T, raw []byte, count int) {
		// Direction 1: interpret raw as little-endian int32s, encode one
		// block, decode, compare.
		n := min(len(raw)/4, edgeBlockLen)
		src := make([]VertexID, n)
		for i := 0; i < n; i++ {
			src[i] = VertexID(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 |
				uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
		}
		enc := appendEdgeBlock(nil, src)
		if want := edgeBlockLenBytes(src); want != len(enc) {
			t.Fatalf("sizing pass predicted %d bytes, encoder wrote %d", want, len(enc))
		}
		var out [edgeBlockLen]VertexID
		used, err := decodeEdgeBlock(enc, n, &out)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if used != len(enc) {
			t.Fatalf("round-trip consumed %d of %d bytes", used, len(enc))
		}
		for i := range src {
			if out[i] != src[i] {
				t.Fatalf("round-trip entry %d = %d, want %d", i, out[i], src[i])
			}
		}

		// Direction 2: the same raw bytes as an untrusted stream; must
		// error or decode, never panic.
		if _, err := decodeEdgeBlock(raw, count, &out); err == nil && (count < 0 || count > edgeBlockLen) {
			t.Fatalf("decode accepted out-of-range count %d", count)
		}
	})
}

func TestBuildPackedCSRMatchesFlat(t *testing.T) {
	graphs := map[string]*Graph{
		"powerlaw":   PreferentialAttachment(500, 3, 7),
		"random-dir": RandomDirected(300, 1500, 11),
		"cycle":      Cycle(130),
		"weighted": func() *Graph {
			g := RandomConnected(200, 600, 3)
			RandomWeights(g, 5)
			return g
		}(),
	}
	for name, g := range graphs {
		flat := BuildCSR(g)
		packed := BuildPackedCSR(g)
		if !packed.Packed() || flat.Packed() {
			t.Fatalf("%s: Packed() flags wrong", name)
		}
		assertCSREqual(t, name, flat, packed)
		// CompressCSR/DecompressCSR agree with the streaming builder.
		assertCSREqual(t, name+"/compress", flat, CompressCSR(flat))
		assertCSREqual(t, name+"/decompress", flat, DecompressCSR(packed))
		if flat.EdgeBytes() <= packed.EdgeBytes() && g.M() > 200 {
			t.Errorf("%s: packed %dB not smaller than flat %dB", name, packed.EdgeBytes(), flat.EdgeBytes())
		}
	}
}

// assertCSREqual checks that every accessor of b enumerates exactly as
// a does: spans, per-entry callbacks, flat-index reads, transposes.
func assertCSREqual(t *testing.T, name string, a, b *CSR) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() || a.NumEntries() != b.NumEntries() {
		t.Fatalf("%s: shape mismatch n=%d/%d m=%d/%d entries=%d/%d",
			name, a.N(), b.N(), a.M(), b.M(), a.NumEntries(), b.NumEntries())
	}
	a.EnsureIn()
	b.EnsureIn()
	var s Scratch
	for v := VertexID(0); int(v) < a.N(); v++ {
		wantOut, gotOut := a.Out(v), b.Out(v)
		gotSpan := b.OutSpan(v, &s)
		if len(wantOut) != len(gotOut) || len(wantOut) != len(gotSpan) {
			t.Fatalf("%s: v%d out degree mismatch", name, v)
		}
		for i := range wantOut {
			if gotOut[i] != wantOut[i] || gotSpan[i] != wantOut[i] {
				t.Fatalf("%s: v%d out[%d] = %d/%d, want %d", name, v, i, gotOut[i], gotSpan[i], wantOut[i])
			}
		}
		wantIn, gotIn := a.In(v), b.InSpan(v, &s)
		if len(wantIn) != len(gotIn) {
			t.Fatalf("%s: v%d in degree mismatch", name, v)
		}
		for i := range wantIn {
			if gotIn[i] != wantIn[i] {
				t.Fatalf("%s: v%d in[%d] = %d, want %d", name, v, i, gotIn[i], wantIn[i])
			}
		}
		i := 0
		b.ForEachOut(v, func(dst VertexID, w float64) {
			var aw float64 = 1
			if ws := a.OutWeights(v); ws != nil {
				aw = ws[i]
			}
			if dst != wantOut[i] || !sameWeight(w, aw) {
				t.Fatalf("%s: v%d ForEachOut[%d] = (%d,%g), want (%d,%g)", name, v, i, dst, w, wantOut[i], aw)
			}
			i++
		})
		i = 0
		b.ForEachIn(v, func(src VertexID, _ float64) {
			if src != wantIn[i] {
				t.Fatalf("%s: v%d ForEachIn[%d] = %d, want %d", name, v, i, src, wantIn[i])
			}
			i++
		})
		lo, hi := a.OutRange(v)
		for j := lo; j < hi; j++ {
			if b.DstAt(j) != a.Dsts[j] {
				t.Fatalf("%s: DstAt(%d) = %d, want %d", name, j, b.DstAt(j), a.Dsts[j])
			}
		}
		wantEdges := a.AppendOutEdges(nil, v)
		gotEdges := b.AppendOutEdges(nil, v)
		for j := range wantEdges {
			if !sameEdge(gotEdges[j], wantEdges[j]) {
				t.Fatalf("%s: v%d AppendOutEdges[%d] mismatch", name, v, j)
			}
		}
	}
}

// TestEdgesPerGBSweep reproduces the EXPERIMENTS.md edges-per-GB table:
// flat vs packed EdgeBytes across generators spanning the locality
// spectrum, plus a SNAP crawl-order fixture (an R-MAT graph serialized
// as shuffled raw ID pairs and re-interned by ReadSNAP in first-seen
// order — what loading a real crawl does). Run with -v to print the
// table. The floors are loose: the point recorded here is that ID
// locality (R-MAT skew, lattice rings, communities, crawl order)
// clears 2x while uniform-target generators sit in the 2-byte varint
// band around 1.8x.
func TestEdgesPerGBSweep(t *testing.T) {
	sizeRatio := func(g *Graph) (int, int, float64) {
		g.Encoding = EncodeInt32
		c := g.Pin()
		flat := c.EdgeBytes()
		g.Unpin(c)
		g.Invalidate()
		g.Encoding = EncodePacked
		c = g.Pin()
		packed := c.EdgeBytes()
		g.Unpin(c)
		return flat, packed, float64(flat) / float64(packed)
	}
	snapFixture := func() *Graph {
		src := RMAT(13, 60000, 9)
		rng := rand.New(rand.NewSource(3))
		perm := rng.Perm(src.N())
		var sb strings.Builder
		sb.WriteString("# LiveJournal-style fixture\n")
		for _, e := range src.UndirectedEdges() {
			fmt.Fprintf(&sb, "%d\t%d\n", perm[e.U]*7+13, perm[e.V]*7+13)
		}
		g, err := ReadSNAP(strings.NewReader(sb.String()), SNAPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name  string
		g     *Graph
		floor float64
	}{
		{"RMAT(15, 400000, 5)", RMAT(15, 400000, 5), 2.0}, // the edges-per-GB headline graph
		{"RMAT(13, 60000, 5)", RMAT(13, 60000, 5), 2.0},
		{"WattsStrogatz(10000, 8, 0.1, 5)", WattsStrogatz(10000, 8, 0.1, 5), 2.0},
		{"SNAP crawl fixture (RMAT-derived)", snapFixture(), 2.0},
		{"SBM(10000, 100, 0.1, 4e-5, 5)", StochasticBlockModel(10000, 100, 0.1, 0.00004, 5), 2.0},
		{"PreferentialAttachment(10000, 8, 5)", PreferentialAttachment(10000, 8, 5), 1.5},
		{"Random(10000, 80000, 5)", Random(10000, 80000, 5), 1.5},
		{"Grid(100, 100)", Grid(100, 100), 1.5},
	} {
		flat, packed, ratio := sizeRatio(tc.g)
		t.Logf("%-36s m=%-7d int32=%-8d packed=%-8d ratio=%.2f", tc.name, tc.g.M(), flat, packed, ratio)
		if ratio < tc.floor {
			t.Errorf("%s: compression ratio %.2f below floor %.2f", tc.name, ratio, tc.floor)
		}
	}
}
