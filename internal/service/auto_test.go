package service

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	"vcgraph/internal/vc"
)

// TestAutoJobEndToEnd serves engine-"auto" jobs and checks both halves
// of the contract: the results are byte-identical to a fixed-engine
// run of the same algorithm, and the decision log records what the
// planner chose (with the PlanTrace hook seeing every decision live).
func TestAutoJobEndToEnd(t *testing.T) {
	type traced struct {
		jobID int64
		d     plan.Decision
	}
	var mu sync.Mutex
	var seen []traced
	s := NewServer(Options{Workers: 4, MaxJobs: 1, PlanTrace: func(jobID int64, d plan.Decision) {
		mu.Lock()
		seen = append(seen, traced{jobID, d})
		mu.Unlock()
	}})
	defer s.Close()

	// A path graph: regular degrees, so the planner's initial pick for
	// the traversal algorithms is block-centric with range partitions.
	if err := s.RegisterGraph(GraphSpec{Name: "chain", Gen: "path", N: 300}); err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(JobSpec{Graph: "chain", Algo: "cc", Engine: "auto", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, s, job)
	if res.auto == nil || len(res.auto.Decisions) == 0 {
		t.Fatalf("auto job carried no decision log: %+v", res.auto)
	}
	if got := res.auto.Decisions[0].Plan; got.Engine != plan.EngineBlockcentric || got.Partition != plan.PartitionRange {
		t.Fatalf("path/cc initial plan = %+v, want blockcentric/range", got)
	}
	if res.auto.GraphStats.N != 300 {
		t.Fatalf("sampled stats %+v, want n=300", res.auto.GraphStats)
	}
	direct, err := vc.HashMinCC(graph.Path(300), vc.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range direct.Color {
		if res.values[v] != float64(c) {
			t.Fatalf("vertex %d: auto label %v != direct %v", v, res.values[v], c)
		}
	}
	mu.Lock()
	nTraced := len(seen)
	mu.Unlock()
	if nTraced == 0 {
		t.Fatal("PlanTrace observed no decisions")
	}
	mu.Lock()
	for _, tr := range seen {
		if tr.jobID != job.ID() {
			t.Fatalf("trace for job %d, want %d", tr.jobID, job.ID())
		}
	}
	mu.Unlock()

	// PageRank on a skewed graph: the planner picks GAS (fixed-K never
	// hands off) with degree-balanced partitions, and the ranks are
	// bitwise those of the plain pregel engine — GAS's globally
	// ascending gather folds sit in the canonical fold-order family.
	if err := s.RegisterGraph(GraphSpec{Name: "pl", Gen: "powerlaw", N: 400, M: 3, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	prJob, err := s.Submit(JobSpec{Graph: "pl", Algo: "pagerank", Engine: "auto", Workers: 1, K: 15})
	if err != nil {
		t.Fatal(err)
	}
	prRes := waitResult(t, s, prJob)
	if prRes.auto == nil || prRes.auto.Segments != 1 {
		t.Fatalf("fixed-K auto run split into %+v", prRes.auto)
	}
	if got := prRes.auto.Decisions[0].Plan; got.Engine != plan.EngineGAS || got.Partition != plan.PartitionDegree {
		t.Fatalf("powerlaw/pagerank initial plan = %+v, want gas/degree", got)
	}
	prDirect, err := vc.PageRank(graph.PreferentialAttachment(400, 3, 7), 0.85, 15, vc.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, want := bits(prRes.values), bits(prDirect.Ranks)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: auto rank bits %#x != pregel %#x", v, got[v], want[v])
		}
	}
}

// TestAutoJobHTTPPlanStatus checks the wire shape: an auto job's
// status JSON carries the "plan" object with the decision log and the
// sampled graph statistics.
func TestAutoJobHTTPPlanStatus(t *testing.T) {
	s := New(2, 1)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doJSON(t, "POST", ts.URL+"/v1/graphs",
		GraphSpec{Name: "g", Gen: "grid", N: 12}, 201)
	sub := doJSON(t, "POST", ts.URL+"/v1/jobs",
		JobSpec{Graph: "g", Algo: "sssp", Engine: "auto", Workers: 2}, 202)
	jobURL := ts.URL + "/v1/jobs/" + jsonID(t, sub)

	var status map[string]any
	deadline := time.Now().Add(10 * time.Second)
	for {
		status = doJSON(t, "GET", jobURL, nil, 200)
		if st := status["state"].(string); st == "succeeded" || st == "failed" || st == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %v", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status["state"] != "succeeded" {
		t.Fatalf("job ended %v", status)
	}
	pl, ok := status["plan"].(map[string]any)
	if !ok {
		t.Fatalf("status has no plan object: %v", status)
	}
	decisions, ok := pl["decisions"].([]any)
	if !ok || len(decisions) == 0 {
		t.Fatalf("plan has no decisions: %v", pl)
	}
	first := decisions[0].(map[string]any)["plan"].(map[string]any)
	if first["engine"] != "gas" || first["partition"] != "hash" {
		t.Fatalf("grid/sssp initial plan = %v, want gas/hash (dense regular)", first)
	}
	gs, ok := pl["graph"].(map[string]any)
	if !ok || gs["n"].(float64) != 144 {
		t.Fatalf("plan graph stats = %v, want n=144", pl["graph"])
	}
	if pl["segments"].(float64) < 1 {
		t.Fatalf("plan segments = %v", pl["segments"])
	}
}

// TestEngineErrorEnumeratesRegistry pins the Submit error contract:
// a bad engine name lists the valid engines, derived from the serving
// matrix so the text tracks the registry.
func TestEngineErrorEnumeratesRegistry(t *testing.T) {
	s := New(1, 1)
	defer s.Close()
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "path", N: 8}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(JobSpec{Graph: "g", Algo: "pagerank", Engine: "warp"})
	if err == nil {
		t.Fatal("Submit accepted an unknown engine")
	}
	for _, want := range []string{"async", "auto", "blockcentric", "gas", "pregel"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list engine %q", err, want)
		}
	}
	_, err = s.Submit(JobSpec{Graph: "g", Algo: "kcore", Engine: "auto"})
	if err == nil {
		t.Fatal("kcore must not run on auto")
	}
	if !strings.Contains(err.Error(), "valid engines: pregel") {
		t.Fatalf("kcore error %q does not enumerate its single engine", err)
	}
}

func jsonID(t *testing.T, body map[string]any) string {
	t.Helper()
	id, ok := body["id"].(float64)
	if !ok {
		t.Fatalf("no id in %v", body)
	}
	return strconv.FormatInt(int64(id), 10)
}
