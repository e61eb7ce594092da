package main

import (
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcgraph/internal/core"
	"vcgraph/internal/vc"
)

var update = flag.Bool("update", false, "rewrite the golden files")

const goldenFile = "table1_w4.csv"

// goldenColumns are the CSV fields that must be identical across worker
// counts: everything except pt_small/pt_large (columns 6, 7) and
// ratio_small/ratio_large (columns 10, 11), which scale with P.
var workerIndependent = []int{0, 1, 2, 3, 4, 5, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}

func renderCSV(t *testing.T, workers int, rows ...string) string {
	t.Helper()
	outs, err := core.RunAll(vc.Config{Workers: workers}, rows...)
	if err != nil {
		t.Fatal(err)
	}
	return core.RenderCSV(outs)
}

// cheapRows is the row subset the stability tests run. cheapRuns keeps
// one run of it per worker count, so those tests compare renderings of
// one run instead of each paying for its own.
var (
	cheapRows = []string{"T1.03", "T1.08", "T1.16"}
	cheapRuns = map[int][]*core.Outcome{}
)

func runCheapRows(t *testing.T, workers int) []*core.Outcome {
	t.Helper()
	if outs, ok := cheapRuns[workers]; ok {
		return outs
	}
	outs, err := core.RunAll(vc.Config{Workers: workers}, cheapRows...)
	if err != nil {
		t.Fatal(err)
	}
	cheapRuns[workers] = outs
	return outs
}

func readGolden(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", goldenFile))
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	return string(b)
}

// TestTable1Golden regenerates the full Table 1 CSV at the default
// 4 workers and requires it to match testdata/table1_w4.csv byte for
// byte. Every metric the table reports — time-processor products,
// sequential baseline ops, superstep counts, verdicts — is asserted
// deterministic in one shot.
func TestTable1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 run in -short mode")
	}
	got := renderCSV(t, 4)
	if *update {
		if err := os.WriteFile(filepath.Join("testdata", goldenFile), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d differs\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// TestTable1StableAcrossRuns re-runs a cheap row subset and checks the
// emitted lines are byte-identical to the golden file — i.e. a fresh
// process reproduces the stored run exactly, not merely a run being
// equal to itself.
func TestTable1StableAcrossRuns(t *testing.T) {
	got := core.RenderCSV(runCheapRows(t, 4))
	want := readGolden(t)
	for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n")[1:] {
		if !strings.Contains(want, line+"\n") {
			t.Errorf("line not present in golden file:\n%s", line)
		}
	}
}

// TestTable1DetailsDeterministic: the -details rendering of the cheap
// rows is byte-identical across two runs at 4 workers, and its
// superstep and verdict lines equal the 2-worker rendering's.
func TestTable1DetailsDeterministic(t *testing.T) {
	first := core.RenderDetails(runCheapRows(t, 4))
	again, err := core.RunAll(vc.Config{Workers: 4}, cheapRows...)
	if err != nil {
		t.Fatal(err)
	}
	if second := core.RenderDetails(again); first != second {
		t.Fatalf("two 4-worker -details renderings differ:\n%s\n---\n%s", first, second)
	}
	// Superstep counts close the evidence line; the verdict line is
	// whole. Everything else may scale with P.
	invariant := func(details string) []string {
		var out []string
		for _, line := range strings.Split(details, "\n") {
			line = strings.TrimSpace(line)
			if i := strings.Index(line, "supersteps "); i >= 0 && strings.HasPrefix(line, "evidence:") {
				out = append(out, line[i:])
			}
			if strings.HasPrefix(line, "verdicts vs paper:") {
				out = append(out, line)
			}
		}
		return out
	}
	w4, w2 := invariant(first), invariant(core.RenderDetails(runCheapRows(t, 2)))
	if len(w4) != 2*len(cheapRows) || len(w2) != len(w4) {
		t.Fatalf("found %d and %d superstep and verdict lines, want %d", len(w4), len(w2), 2*len(cheapRows))
	}
	for i := range w4 {
		if w2[i] != w4[i] {
			t.Errorf("2 workers %q, 4 workers %q", w2[i], w4[i])
		}
	}
}

// TestTable1VerdictsStableAcrossWorkers runs a row subset at a
// different worker count and checks every worker-independent column
// (sizes, sequential ops, superstep counts, verdicts) agrees with the
// 4-worker golden. Only the P-scaled columns (PT, ratio) may move.
func TestTable1VerdictsStableAcrossWorkers(t *testing.T) {
	got := core.RenderCSV(runCheapRows(t, 2))
	gotRecs, err := csv.NewReader(strings.NewReader(got)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, err := csv.NewReader(strings.NewReader(readGolden(t))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string][]string{}
	for _, r := range wantRecs[1:] {
		byID[r[0]] = r
	}
	if len(gotRecs) != len(cheapRows)+1 {
		t.Fatalf("got %d records, want %d", len(gotRecs)-1, len(cheapRows))
	}
	for _, r := range gotRecs[1:] {
		w, ok := byID[r[0]]
		if !ok {
			t.Fatalf("row %s missing from golden file", r[0])
		}
		for _, c := range workerIndependent {
			if r[c] != w[c] {
				t.Errorf("row %s column %d: 2 workers %q, 4 workers %q", r[0], c, r[c], w[c])
			}
		}
	}
}
