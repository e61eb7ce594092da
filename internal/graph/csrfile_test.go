package graph

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTempVCSR(t *testing.T, g *Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.vcsr")
	if err := WriteCSRFilePath(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVCSRRoundTrip(t *testing.T) {
	graphs := map[string]*Graph{
		"powerlaw":   PreferentialAttachment(400, 3, 9),
		"random-dir": RandomDirected(250, 1200, 5),
		"weighted": func() *Graph {
			g := RandomConnected(150, 500, 2)
			RandomWeights(g, 8)
			return g
		}(),
		"empty": New(0, false),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			path := writeTempVCSR(t, g)
			got, err := OpenCSRFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			if !got.Adopted() {
				t.Fatal("loaded graph not adopted")
			}
			if got.N() != g.N() || got.M() != g.M() || got.Directed != g.Directed {
				t.Fatalf("shape: got n=%d m=%d dir=%v, want n=%d m=%d dir=%v",
					got.N(), got.M(), got.Directed, g.N(), g.M(), g.Directed)
			}
			want := BuildCSR(g)
			assertCSREqual(t, name, want, got.CSR())
			if g.N() > 0 && !got.CSR().Packed() {
				t.Fatal("loaded snapshot not packed")
			}
		})
	}
}

func TestVCSRAdoptedGraphIsReadOnly(t *testing.T) {
	g, err := OpenCSRFile(writeTempVCSR(t, Cycle(10)))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.ApplyMutations([]Mutation{{Op: InsertEdge, U: 0, V: 5}}); err == nil {
		t.Fatal("ApplyMutations succeeded on adopted graph")
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic on adopted graph", name)
			}
		}()
		f()
	}
	mustPanic("AddEdge", func() { g.AddEdge(0, 5) })
	mustPanic("Invalidate", func() { g.Invalidate() })
	// Reads all work, including the lazily derived transpose.
	if d := g.Degree(3); d != 2 {
		t.Fatalf("Degree(3) = %d, want 2", d)
	}
	g.EnsureIn()
	if got := g.CSR().In(0); len(got) != 2 {
		t.Fatalf("In(0) = %v, want 2 in-neighbors", got)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestVCSRRejectsGarbage(t *testing.T) {
	plain := PreferentialAttachment(60, 2, 4)
	for _, g := range []*Graph{plain, withEdgeLabels(plain, []string{"", "a", "bc"}, 5)} {
		checkVCSRRejectsGarbage(t, g)
	}
}

// checkVCSRRejectsGarbage writes g and opens damaged copies of the file.
func checkVCSRRejectsGarbage(t *testing.T, g *Graph) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSRFile(&buf, g.CSR()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	tryOpen := func(name string, data []byte) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := OpenCSRFile(path)
		if err == nil {
			loaded.Close()
		}
		return err
	}
	if err := tryOpen("good.vcsr", good); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	if err := tryOpen("empty.vcsr", nil); err == nil {
		t.Error("empty file accepted")
	}
	if err := tryOpen("magic.vcsr", append([]byte("NOPE"), good[4:]...)); err == nil {
		t.Error("bad magic accepted")
	}
	if err := tryOpen("trunc.vcsr", good[:len(good)/2]); err == nil {
		t.Error("truncated file accepted")
	}
	// Corrupt the file past its header one byte at a time: every
	// corruption must be rejected or decode to in-range destinations
	// and label ids — never panic or yield a CSR that indexes out of
	// bounds.
	for i := vcsrHeaderLen; i < len(good); i += 7 {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xff
		if werr := os.WriteFile(filepath.Join(dir, "mut.vcsr"), mut, 0o644); werr != nil {
			t.Fatal(werr)
		}
		loaded, err := OpenCSRFile(filepath.Join(dir, "mut.vcsr"))
		if err != nil {
			continue
		}
		c := loaded.CSR()
		n := VertexID(c.N())
		var s Scratch
		for v := VertexID(0); v < n; v++ {
			for _, d := range c.OutSpan(v, &s) {
				if d < 0 || d >= n {
					t.Fatalf("byte %d corruption: out-of-range dst %d accepted", i, d)
				}
			}
		}
		for e := int32(0); int(e) < c.NumEntries(); e++ {
			c.EdgeLabel(e)
		}
		loaded.Close()
	}
}

// TestVCSRBytesUnchanged pins the SHA-256 of the .vcsr bytes of a few
// unlabeled graphs, written from a flat and from a packed snapshot:
// changes to the edge layout, the CSR builders or the label table must
// leave an unlabeled file byte for byte as it was.
func TestVCSRBytesUnchanged(t *testing.T) {
	weighted := RandomConnected(150, 500, 2)
	RandomWeights(weighted, 8)
	snap, err := ReadSNAP(strings.NewReader(benchmarkShapeSNAP(RMAT(9, 3000, 4), 2)), SNAPOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *Graph
		want string
	}{
		{"powerlaw", PreferentialAttachment(400, 3, 9), "601d208c7c5775a8291fc5065952007985d095ffb73fc229ea9db969091b6273"},
		{"random-dir", RandomDirected(250, 1200, 5), "79928e46157a95e584f83b64cb46cb002bef806ff557c3d728bf29fbd6ff73ac"},
		{"weighted", weighted, "de91189e99cf735349f7739177f8793a03f0a29e71aab586d75706c003970ac8"},
		{"rmat", RMAT(10, 4000, 2), "f0c517b4bc7d77ffe672dc1e634d605b623b418f72b3a94c7951c29eebd0527a"},
		{"snap", snap, "8f2ce56451e72e21cb02d6de19114d659acdc746505e43ab5cbf5450d95e860c"},
		{"grid", Grid(20, 30), "f6cf28d0d9fb85a5ffd6f4b85bb96aadc94e33c219758ac97c78c7adcac4eb56"},
	}
	for _, tc := range cases {
		for _, packed := range []bool{false, true} {
			c := BuildCSR(tc.g)
			if packed {
				c = BuildPackedCSR(tc.g)
			}
			var buf bytes.Buffer
			if err := WriteCSRFile(&buf, c); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
				t.Errorf("%s (packed %v): sha256 %s, want %s", tc.name, packed, got, tc.want)
			}
		}
	}
}
