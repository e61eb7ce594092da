package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	rt "vcgraph/internal/runtime"
)

// TestMutateGraph: the mutate entry point is atomic and epoch-bumping;
// invalid batches leave both graph and epoch untouched.
func TestMutateGraph(t *testing.T) {
	s := New(1, 1)
	defer s.Close()
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "path", N: 8}); err != nil {
		t.Fatal(err)
	}
	_, m0, _, e0, _ := s.GraphInfo("g")
	epoch, err := s.MutateGraph("g", []MutationSpec{
		{Op: "insert", U: 0, V: 5, W: 2},
		{Op: "delete", U: 1, V: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, m1, _, e1, _ := s.GraphInfo("g")
	if epoch != e0+1 || e1 != e0+1 || m1 != m0 {
		t.Fatalf("after batch: epoch %d -> %d/%d, m %d->%d", e0, epoch, e1, m0, m1)
	}

	// Deleting a missing edge rejects the whole batch.
	if _, err := s.MutateGraph("g", []MutationSpec{
		{Op: "insert", U: 0, V: 7},
		{Op: "delete", U: 3, V: 7},
	}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	_, m2, _, e2, _ := s.GraphInfo("g")
	if e2 != e1 || m2 != m1 {
		t.Fatalf("rejected batch changed state: epoch %d -> %d, m %d->%d", e1, e2, m1, m2)
	}

	if _, err := s.MutateGraph("g", []MutationSpec{{Op: "upsert", U: 0, V: 1}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := s.MutateGraph("none", nil); !errors.Is(err, errUnknownGraph) {
		t.Fatalf("unknown graph: %v", err)
	}
}

// TestIncrementalJobChain: submit cold incremental jobs, mutate, resume
// each from its predecessor — every warm result must be byte-identical
// to a from-scratch run of the same algorithm on the mutated graph.
func TestIncrementalJobChain(t *testing.T) {
	s := New(2, 1)
	defer s.Close()
	if err := s.RegisterGraph(testGraph("g")); err != nil {
		t.Fatal(err)
	}
	submit := func(spec JobSpec) *runResult {
		t.Helper()
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return waitResult(t, s, job)
	}
	submitJob := func(spec JobSpec) (*rt.Job, *runResult) {
		t.Helper()
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return job, waitResult(t, s, job)
	}

	ccJob, cc0 := submitJob(JobSpec{Graph: "g", Algo: "cc", Engine: "inc"})
	ssJob, ss0 := submitJob(JobSpec{Graph: "g", Algo: "sssp", Incremental: true, Src: 3})
	for _, res := range []*runResult{cc0, ss0} {
		if !res.prior.Cold {
			t.Fatal("first incremental run should be cold and carry state")
		}
	}

	if _, err := s.MutateGraph("g", []MutationSpec{
		{Op: "insert", U: 2, V: 350, W: 0.25},
		{Op: "insert", U: 17, V: 44, W: 1.5},
		{Op: "delete", U: 2, V: 350},
	}); err != nil {
		t.Fatal(err)
	}

	cc1 := submit(JobSpec{Graph: "g", Algo: "cc", Engine: "inc", Resume: ccJob.ID()})
	ss1 := submit(JobSpec{Graph: "g", Algo: "sssp", Engine: "inc", Src: 3, Resume: ssJob.ID()})
	for _, res := range []*runResult{cc1, ss1} {
		if res.prior.Cold {
			t.Fatal("resumed run fell back to cold")
		}
	}

	// From-scratch ground truth on the mutated graph: async for the
	// byte-exact fixpoints.
	ccScratch := submit(JobSpec{Graph: "g", Algo: "cc", Engine: "async"})
	ssScratch := submit(JobSpec{Graph: "g", Algo: "sssp", Engine: "async", Src: 3})
	if !reflect.DeepEqual(cc1.values, ccScratch.values) || cc1.verdict != ccScratch.verdict {
		t.Fatal("warm CC differs from from-scratch async run")
	}
	if !reflect.DeepEqual(ss1.values, ssScratch.values) || ss1.verdict != ssScratch.verdict {
		t.Fatal("warm SSSP differs from from-scratch async run")
	}
}

// TestIncrementalResumeFromPlainJob: CC and SSSP warm-start from a
// non-incremental job's converged values.
func TestIncrementalResumeFromPlainJob(t *testing.T) {
	s := New(2, 1)
	defer s.Close()
	if err := s.RegisterGraph(testGraph("g")); err != nil {
		t.Fatal(err)
	}
	plainCC, err := s.Submit(JobSpec{Graph: "g", Algo: "cc", Engine: "pregel", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, s, plainCC)

	if _, err := s.MutateGraph("g", []MutationSpec{{Op: "insert", U: 1, V: 399}}); err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(JobSpec{Graph: "g", Algo: "cc", Engine: "inc", Resume: plainCC.ID()})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, s, job)
	if res.prior.Cold {
		t.Fatal("resume from plain CC job fell back to cold")
	}
	scratch, err := s.Submit(JobSpec{Graph: "g", Algo: "cc", Engine: "async"})
	if err != nil {
		t.Fatal(err)
	}
	if want := waitResult(t, s, scratch); !reflect.DeepEqual(res.values, want.values) {
		t.Fatal("plain-seeded warm CC differs from from-scratch run")
	}
}

// TestResumeValidation: bad resume targets fail at submit time.
func TestResumeValidation(t *testing.T) {
	s := New(2, 1)
	defer s.Close()
	for _, name := range []string{"g1", "g2"} {
		if err := s.RegisterGraph(GraphSpec{Name: name, Gen: "connected", N: 30, M: 60, Seed: 2}); err != nil {
			t.Fatal(err)
		}
	}
	job, err := s.Submit(JobSpec{Graph: "g1", Algo: "sssp", Engine: "inc", Src: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, s, job)

	cases := []struct {
		name string
		spec JobSpec
	}{
		{"unknown job", JobSpec{Graph: "g1", Algo: "sssp", Engine: "inc", Src: 1, Resume: 999}},
		{"cross graph", JobSpec{Graph: "g2", Algo: "sssp", Engine: "inc", Src: 1, Resume: job.ID()}},
		{"cross algo", JobSpec{Graph: "g1", Algo: "cc", Engine: "inc", Resume: job.ID()}},
		{"source mismatch", JobSpec{Graph: "g1", Algo: "sssp", Engine: "inc", Src: 5, Resume: job.ID()}},
		{"resume without inc", JobSpec{Graph: "g1", Algo: "sssp", Engine: "async", Src: 1, Resume: job.ID()}},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.spec); err == nil {
			t.Errorf("%s: submit accepted", tc.name)
		}
	}
}

// TestResumeRejectsReRegisteredGraph: epochs count mutations of one
// registration, so a graph evicted and registered again under the same
// name can reach the prior job's epoch with other edges. Resuming across
// the two registrations must fail at submit, not warm-start from the
// old graph's answer.
func TestResumeRejectsReRegisteredGraph(t *testing.T) {
	s := NewServer(Options{Workers: 1, MaxJobs: 1, GraphTTL: time.Minute})
	defer s.Close()
	base := time.Now()
	s.now = func() time.Time { return base }
	register := func(edges [][]float64) {
		t.Helper()
		if err := s.RegisterGraph(GraphSpec{Name: "g", N: 4, Edges: edges}); err != nil {
			t.Fatal(err)
		}
	}
	register([][]float64{{0, 1}, {2, 3}})
	job, err := s.Submit(JobSpec{Graph: "g", Algo: "cc", Engine: "pregel", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res := waitResult(t, s, job); res.prior.Epoch != 2 || !reflect.DeepEqual(res.values, []float64{0, 0, 2, 2}) {
		t.Fatalf("first registration: epoch %d, labels %v", res.prior.Epoch, res.values)
	}

	s.now = func() time.Time { return base.Add(2 * time.Minute) }
	if evicted := s.EvictGraphs(); !reflect.DeepEqual(evicted, []string{"g"}) {
		t.Fatalf("evicted %v, want [g]", evicted)
	}
	register([][]float64{{0, 2}, {1, 3}})
	if _, _, _, epoch, _ := s.GraphInfo("g"); epoch != 2 {
		t.Fatalf("second registration at epoch %d, want 2 like the first", epoch)
	}
	_, err = s.Submit(JobSpec{Graph: "g", Algo: "cc", Engine: "inc", Resume: job.ID()})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("job %d", job.ID())) || !strings.Contains(err.Error(), `"g"`) {
		t.Fatalf("resume across registrations: err = %v", err)
	}
}

// TestIncrementalNeedsIncEngine: "incremental" names the inc engine, so
// pairing it with another engine is refused at submit rather than run
// as a plain job whose status claims it was incremental.
func TestIncrementalNeedsIncEngine(t *testing.T) {
	s := New(1, 1)
	defer s.Close()
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "path", N: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Graph: "g", Algo: "cc", Engine: "pregel", Incremental: true}); err == nil {
		t.Fatal("incremental job on pregel accepted")
	}
}

// TestPageRankHasNoIncEngine: PageRank has no inc row, so a pagerank
// job asking for it, by engine name or by "incremental", is refused at
// submit with the error that names the engines it does run on.
func TestPageRankHasNoIncEngine(t *testing.T) {
	s := New(1, 1)
	defer s.Close()
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "path", N: 8}); err != nil {
		t.Fatal(err)
	}
	const want = `service: algorithm "pagerank" does not run on engine "inc" (valid engines: async, auto, blockcentric, gas, pregel)`
	for _, spec := range []JobSpec{
		{Graph: "g", Algo: "pagerank", Engine: "inc"},
		{Graph: "g", Algo: "pagerank", Incremental: true},
	} {
		if _, err := s.Submit(spec); err == nil || err.Error() != want {
			t.Errorf("engine %q incremental %v: err = %v, want %q", spec.Engine, spec.Incremental, err, want)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := doJSON(t, "POST", ts.URL+"/v1/jobs", JobSpec{Graph: "g", Algo: "pagerank", Incremental: true}, http.StatusBadRequest)
	if body["error"] != want {
		t.Fatalf("HTTP error body = %v, want %q", body, want)
	}
}

// TestJobEviction: terminal records beyond the retention cap are
// evicted oldest-first; live (queued/running) jobs are never evicted.
func TestJobEviction(t *testing.T) {
	// MaxJobs 2: the blocked job pins one admission slot for the whole
	// test, so the real jobs need a second.
	s := NewServer(Options{Workers: 2, MaxJobs: 2, JobRetention: 3})
	defer s.Close()
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "connected", N: 40, M: 80, Seed: 3}); err != nil {
		t.Fatal(err)
	}

	// A running job pinned open: oldest in the registry, but immune.
	gate := make(chan struct{})
	blocked := s.Scheduler().Submit(context.Background(), "blocked", 1, func(*rt.Job) error {
		<-gate
		return nil
	})
	s.mu.Lock()
	s.jobs[blocked.ID()] = &jobRecord{job: blocked}
	s.jobOrder = append(s.jobOrder, blocked.ID())
	s.mu.Unlock()
	defer func() {
		close(gate)
		_ = blocked.Wait()
	}()

	var ids []int64
	for i := 0; i < 6; i++ {
		job, err := s.Submit(JobSpec{Graph: "g", Algo: "cc", Engine: "async"})
		if err != nil {
			t.Fatal(err)
		}
		waitResult(t, s, job)
		ids = append(ids, job.ID())
	}
	s.EvictJobs()

	if _, err := s.JobRecord(blocked.ID()); err != nil {
		t.Fatal("running job was evicted")
	}
	if _, err := s.JobRecord(ids[0]); !errors.Is(err, errUnknownJob) {
		t.Fatalf("oldest terminal job not evicted: %v", err)
	}
	if _, err := s.JobRecord(ids[len(ids)-1]); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n > 4 { // retention cap + the immune running job
		t.Fatalf("registry holds %d records, want <= 4", n)
	}
}

// TestGraphEvictionRespectsPins: TTL eviction drops idle graphs but
// never one with a pinned snapshot (a prepared job may be mid-run).
func TestGraphEvictionRespectsPins(t *testing.T) {
	s := NewServer(Options{Workers: 1, MaxJobs: 1, GraphTTL: time.Minute})
	defer s.Close()
	base := time.Now()
	s.now = func() time.Time { return base }
	for _, name := range []string{"pinned", "idle"} {
		if err := s.RegisterGraph(GraphSpec{Name: name, Gen: "path", N: 10}); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	ent := s.graphs["pinned"]
	s.mu.Unlock()
	snap := ent.g.Pin()

	s.now = func() time.Time { return base.Add(2 * time.Minute) }
	evicted := s.EvictGraphs()
	if len(evicted) != 1 || evicted[0] != "idle" {
		t.Fatalf("evicted %v, want [idle]", evicted)
	}
	if _, _, _, _, err := s.GraphInfo("pinned"); err != nil {
		t.Fatal("pinned graph was evicted")
	}

	// GraphInfo above refreshed lastUsed; go idle again, unpin, evict.
	s.now = func() time.Time { return base.Add(5 * time.Minute) }
	ent.g.Unpin(snap)
	evicted = s.EvictGraphs()
	if len(evicted) != 1 || evicted[0] != "pinned" {
		t.Fatalf("evicted %v, want [pinned]", evicted)
	}
	if _, _, _, _, err := s.GraphInfo("pinned"); !errors.Is(err, errUnknownGraph) {
		t.Fatalf("graph still served after eviction: %v", err)
	}
}

// TestGraphTTLDisabled: without a TTL, EvictGraphs is a no-op.
func TestGraphTTLDisabled(t *testing.T) {
	s := New(1, 1)
	defer s.Close()
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "path", N: 4}); err != nil {
		t.Fatal(err)
	}
	s.now = func() time.Time { return time.Now().Add(1000 * time.Hour) }
	if evicted := s.EvictGraphs(); len(evicted) != 0 {
		t.Fatalf("TTL-less eviction dropped %v", evicted)
	}
}

// TestHTTPMutateAndIncremental drives the evolving-graph surface over
// a live listener: mutate a graph, run a cold incremental job, mutate
// again, resume warm, and check the status report's epoch/cold fields.
func TestHTTPMutateAndIncremental(t *testing.T) {
	s := New(2, 1)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reg := doJSON(t, "POST", ts.URL+"/v1/graphs",
		GraphSpec{Name: "web", Gen: "connected", N: 60, M: 150, Seed: 9, Weights: true}, http.StatusCreated)
	epoch0 := reg["epoch"].(float64)

	mut := doJSON(t, "POST", ts.URL+"/v1/graphs/web/mutate", map[string]any{
		"mutations": []MutationSpec{{Op: "insert", U: 3, V: 41, W: 0.5}},
	}, http.StatusOK)
	if mut["epoch"].(float64) != epoch0+1 {
		t.Fatalf("mutate epoch = %v, want %v", mut["epoch"], epoch0+1)
	}
	doJSON(t, "POST", ts.URL+"/v1/graphs/web/mutate", map[string]any{
		"mutations": []MutationSpec{{Op: "delete", U: 0, V: 59}},
	}, http.StatusBadRequest)

	runJob := func(spec JobSpec) (int64, map[string]any) {
		t.Helper()
		sub := doJSON(t, "POST", ts.URL+"/v1/jobs", spec, http.StatusAccepted)
		id := int64(sub["id"].(float64))
		url := fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id)
		deadline := time.Now().Add(10 * time.Second)
		for {
			status := doJSON(t, "GET", url, nil, http.StatusOK)
			switch status["state"].(string) {
			case "succeeded":
				return id, status
			case "failed", "cancelled":
				t.Fatalf("job %d: %v", id, status)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d did not finish", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	coldID, cold := runJob(JobSpec{Graph: "web", Algo: "sssp", Incremental: true, Src: 2})
	if cold["incremental"] != true || cold["cold"] != true || cold["epoch"].(float64) != epoch0+1 {
		t.Fatalf("cold status = %v", cold)
	}

	doJSON(t, "POST", ts.URL+"/v1/graphs/web/mutate", map[string]any{
		"mutations": []MutationSpec{{Op: "insert", U: 2, V: 57, W: 0.25}, {Op: "delete", U: 2, V: 57}},
	}, http.StatusOK)

	_, warm := runJob(JobSpec{Graph: "web", Algo: "sssp", Engine: "inc", Src: 2, Resume: coldID})
	if warm["cold"] != false || warm["resume"].(float64) != float64(coldID) || warm["epoch"].(float64) != epoch0+2 {
		t.Fatalf("warm status = %v", warm)
	}
	if warm["verdict"] != cold["verdict"] {
		t.Fatalf("verdict drifted: %v -> %v", cold["verdict"], warm["verdict"])
	}

	// Resume against an evicted/unknown job is a 404 at submit time.
	doJSON(t, "POST", ts.URL+"/v1/jobs",
		JobSpec{Graph: "web", Algo: "sssp", Engine: "inc", Src: 2, Resume: 4242}, http.StatusNotFound)
}
