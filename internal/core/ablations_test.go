package core

import (
	"strconv"
	"strings"
	"testing"

	"vcgraph/internal/vc"
)

func TestCombinerAblation(t *testing.T) {
	s, err := CombinerAblation(300, 2000, vc.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "with combiner") || !strings.Contains(s, "results identical") {
		t.Fatalf("unexpected output:\n%s", s)
	}
}

func TestBandwidthSweepMonotone(t *testing.T) {
	s, err := BandwidthSweep(vc.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "g") || !strings.Contains(s, "16") {
		t.Fatalf("unexpected output:\n%s", s)
	}
}

func TestPartitionAblationIdenticalResults(t *testing.T) {
	s, err := PartitionAblation(vc.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "degree-balanced") {
		t.Fatalf("unexpected output:\n%s", s)
	}
}

func TestParadigmComparisonAgrees(t *testing.T) {
	s, err := ParadigmComparison(vc.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Hash-Min", "S-V", "block-centric", "identical results"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestSubgraphOverhead(t *testing.T) {
	s, err := SubgraphOverhead(vc.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "msgs/m") {
		t.Fatalf("unexpected output:\n%s", s)
	}
}

// TestPlannerAblationAcceptance runs the planner ablation at the
// cmd/ablations default of 4 workers, where EXPERIMENTS.md's table was
// taken. PlannerAblation itself errors unless auto's P·T is within 10%
// of the best fixed engine on every workload and >=1.5x below the worst
// on at least two. On top of that, the cc/path row must show the
// planner's block-centric pick collapsing pregel Hash-Min's 4096
// supersteps, and both caterpillar rows (skew exactly 1.5) must plan
// block-centric too. (At 1 and 2 workers the acceptance bar does not
// hold; EXPERIMENTS.md records those tables as a known deviation.)
func TestPlannerAblationAcceptance(t *testing.T) {
	s, err := PlannerAblation(vc.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + s)
	want := map[string]bool{"cc/path": true, "cc/caterpillar": true, "sssp/caterpillar": true}
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || !want[f[0]] {
			continue
		}
		delete(want, f[0])
		if f[5] != "blockcentric" {
			t.Errorf("%s: auto picked %s, want blockcentric", f[0], f[5])
		}
		if f[0] != "cc/path" {
			continue
		}
		pregel, err1 := strconv.ParseFloat(f[1], 64)
		auto, err2 := strconv.ParseFloat(f[4], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable cc/path row %q", line)
		}
		if pregel < 100*auto {
			t.Errorf("cc/path: auto P·T %.0f vs pregel %.0f, want >= 100x", auto, pregel)
		}
	}
	for name := range want {
		t.Errorf("no %s row in:\n%s", name, s)
	}
}

func TestRemainingAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by cmd/ablations")
	}
	t.Run("fcs", func(t *testing.T) {
		s, err := FCSAblation(vc.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s, "with FCS") {
			t.Fatalf("output:\n%s", s)
		}
	})
	t.Run("superstep-sharing", func(t *testing.T) {
		s, err := SuperstepSharingAblation(vc.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s, "shared supersteps") {
			t.Fatalf("output:\n%s", s)
		}
	})
	t.Run("model-comparison", func(t *testing.T) {
		s, err := ModelComparison(vc.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s, "GAS") {
			t.Fatalf("output:\n%s", s)
		}
	})
	t.Run("worker-sweep", func(t *testing.T) {
		s, err := WorkerSweep()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s, "workers") {
			t.Fatalf("output:\n%s", s)
		}
	})
}
