package vc

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	"vcgraph/internal/runtime"
)

var updateCounts = flag.Bool("update", false, "rewrite the label-correcting counts golden")

// TestLabelCorrectingCountsGolden pins, for CC and SSSP on the gas,
// async and block-centric rows, everything a run reports that is
// exact: a hash of the values (every value ≥ 1e300 hashed as one
// "unreached" token, so either spelling of an unreachable distance
// reads the same), supersteps, work, messages, full and delta
// checkpoint bytes and rollbacks, clean and under a fault plan with
// delta checkpoints. Refactors of these programs must leave every line
// as it is; regenerate with -update only when a change means to move a
// count, and say so.
func TestLabelCorrectingCountsGolden(t *testing.T) {
	weighted := graph.Grid(60, 60)
	graph.RandomWeights(weighted, 3)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid60", graph.Grid(60, 60)},
		{"grid60w", weighted},
		{"pa4000", graph.PreferentialAttachment(4000, 4, 2)},
		{"rmat12", graph.RMAT(12, 30000, 1)},
	}
	var lines []string
	for _, algo := range []string{"cc", "sssp"} {
		for _, engine := range []string{plan.EngineGAS, plan.EngineAsync, plan.EngineBlockcentric} {
			for _, gr := range graphs {
				for _, w := range []int{1, 3} {
					for _, faulted := range []bool{false, true} {
						cfg := Config{Workers: w}
						mode := "clean"
						if faulted {
							cfg.CheckpointEvery, cfg.FullSnapshotEvery = 1, 3
							cfg.Faults = runtime.NewFaultPlan(7)
							mode = "faults7"
						}
						vals, st, err := Matrix[Key{algo, engine}](gr.g, Args{Src: 0}, Env{Config: cfg})()
						if err != nil {
							t.Fatalf("%s/%s/%s/w%d/%s: %v", algo, engine, gr.name, w, mode, err)
						}
						h := fnv.New64a()
						for _, x := range vals {
							bits := math.Float64bits(x)
							if x >= 1e300 {
								bits = 0x7ff0_0000_0000_0001 // the unreached token
							}
							fmt.Fprintf(h, "%016x", bits)
						}
						r := st.Recovery
						lines = append(lines, fmt.Sprintf("%s %s %s w%d %s values=%016x supersteps=%d work=%d messages=%d ckfull=%d ckdelta=%d rollbacks=%d",
							algo, engine, gr.name, w, mode, h.Sum64(), st.NumSupersteps(), st.TotalWork, st.TotalMessages,
							r.CheckpointBytesFull, r.CheckpointBytesDelta, r.Rollbacks))
					}
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "label_correcting_counts.golden")
	if *updateCounts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		wantLines := strings.Split(string(want), "\n")
		for i, l := range lines {
			if i >= len(wantLines) || wantLines[i] != l {
				w := "<missing>"
				if i < len(wantLines) {
					w = wantLines[i]
				}
				t.Errorf("line %d:\n got  %s\n want %s", i+1, l, w)
			}
		}
		if len(wantLines)-1 != len(lines) {
			t.Errorf("%d lines, golden has %d", len(lines), len(wantLines)-1)
		}
	}
}
