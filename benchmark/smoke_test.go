package main

import (
	"path/filepath"
	"testing"
)

// smokeRun executes one workload at -smoke scale and fails the test on
// any failed operation.
func smokeRun(t *testing.T, workload string, seed int64, traced bool) *report {
	t.Helper()
	o := options{workload: workload, seed: seed, seconds: 1, smoke: true, trace: traced}
	if traced {
		o.traceOut = filepath.Join(t.TempDir(), "spans.json")
	}
	rep, err := execute(o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", workload, seed, rep.Failed, rep.Attempted, rep.Errors)
	}
	return rep
}

// TestSmokeOracles runs every workload on two seeds: every operation
// must pass its oracle check, and every end-to-end metric must be a
// positive number.
func TestSmokeOracles(t *testing.T) {
	for _, w := range workloadOrder {
		for _, seed := range []int64{1, 2} {
			rep := smokeRun(t, w, seed, false)
			for _, d := range endToEnd {
				if v := rep.Values[d.Name]; !(v > 0) {
					t.Errorf("%s seed %d: %s = %v, want > 0", w, seed, d.Name, v)
				}
			}
		}
	}
}

// TestExactCountsRepeat checks that the counts the layers return are the
// same on two traced runs of one seed, which is what lets a later change
// rest a claim on them.
func TestExactCountsRepeat(t *testing.T) {
	exact := []string{"runtime.supersteps", "pregel.messages", "pregel.work", "gas.work", "async.work",
		"blockcentric.messages", "plan.decisions", "graph.edge_bytes_flat", "graph.edge_bytes_packed",
		"runtime.rollbacks", "runtime.checkpoint_bytes_delta"}
	for _, w := range workloadOrder {
		a, b := smokeRun(t, w, 3, true), smokeRun(t, w, 3, true)
		for _, name := range exact {
			if a.Values[name] != b.Values[name] {
				t.Errorf("%s: %s was %v, then %v", w, name, a.Values[name], b.Values[name])
			}
		}
	}
}

// TestSelfTime pins the tracer's arithmetic: a span's self time is its
// duration minus its children's.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "call", Start: 10, End: 40, Parent: 0},
		{Name: "call", Start: 50, End: 90, Parent: 0},
	}
	self, calls := tr.selfTimes(0, 3)
	if self["op"] != 30 || self["call"] != 70 || calls["call"] != 2 {
		t.Errorf("self = %v, calls = %v", self, calls)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
