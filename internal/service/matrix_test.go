package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"vcgraph/internal/vc"
)

// TestServiceServesExactlyTheMatrix: Submit accepts a (algorithm,
// engine) pair iff it is a row of vc.Matrix or the "auto" harness over
// an algorithm it takes — and nothing else.
func TestServiceServesExactlyTheMatrix(t *testing.T) {
	s := New(2, 1)
	defer s.Close()
	if err := s.RegisterGraph(GraphSpec{Name: "g", Gen: "grid", N: 4}); err != nil {
		t.Fatal(err)
	}
	algos := map[string]bool{"mincut": true}
	engines := map[string]bool{"auto": true, "warp": true}
	for key := range vc.Matrix {
		algos[key.Algo], engines[key.Engine] = true, true
	}
	harnessed := map[string]bool{"pagerank": true, "sssp": true, "cc": true}
	for algo := range algos {
		for engine := range engines {
			_, want := vc.Matrix[vc.Key{Algo: algo, Engine: engine}]
			if engine == "auto" {
				want = harnessed[algo]
			}
			job, err := s.Submit(JobSpec{Graph: "g", Algo: algo, Engine: engine, Workers: 1, K: 3})
			if got := err == nil; got != want {
				t.Errorf("Submit(%s on %s): accepted=%v, want %v (err %v)", algo, engine, got, want, err)
			}
			if err == nil {
				waitResult(t, s, job)
			}
		}
	}
}

// TestUnreachableVertexOnTheWire: every engine reports an unreachable
// SSSP vertex as the same finite JSON number and the same verdict. The
// matrix rows hold +Inf, which JSON cannot carry; before the one result
// exit normalized it, the point query answered 200 with an empty body
// on every engine but async and inc.
func TestUnreachableVertexOnTheWire(t *testing.T) {
	s := New(2, 2)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Two weighted components and an isolated vertex; source 0 reaches
	// {0, 1, 2} only.
	doJSON(t, "POST", ts.URL+"/v1/graphs", GraphSpec{
		Name: "islands", N: 6,
		Edges: [][]float64{{0, 1, 1.5}, {1, 2, 2}, {3, 4, 1}},
	}, http.StatusCreated)

	engines := validEngines("sssp")
	if want := []string{"async", "auto", "blockcentric", "gas", "inc", "pregel"}; !reflect.DeepEqual(engines, want) {
		t.Fatalf("sssp engines = %v, want %v", engines, want)
	}
	type answer struct {
		verdict string
		values  [6]any
	}
	var first answer
	for i, engine := range engines {
		sub := doJSON(t, "POST", ts.URL+"/v1/jobs",
			JobSpec{Graph: "islands", Algo: "sssp", Engine: engine, Workers: 2}, http.StatusAccepted)
		id := int64(sub["id"].(float64))
		rec, err := s.JobRecord(id)
		if err != nil {
			t.Fatal(err)
		}
		waitResult(t, s, rec.job)
		jobURL := fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id)
		got := answer{verdict: doJSON(t, "GET", jobURL, nil, http.StatusOK)["verdict"].(string)}
		for v := range got.values {
			// doJSON fails the test on an empty or undecodable body.
			got.values[v] = doJSON(t, "GET", fmt.Sprintf("%s/query?vertex=%d", jobURL, v), nil, http.StatusOK)["value"]
		}
		if i == 0 {
			first = got
			if want := "3 vertices reachable from 0"; got.verdict != want {
				t.Fatalf("%s verdict = %q, want %q", engine, got.verdict, want)
			}
			if want := [6]any{0.0, 1.5, 3.5, vc.Unreachable, vc.Unreachable, vc.Unreachable}; got.values != want {
				t.Fatalf("%s values = %v, want %v", engine, got.values, want)
			}
		} else if got != first {
			t.Fatalf("%s answered %+v, %s answered %+v", engine, got, engines[0], first)
		}
	}
}

// TestWriteJSONEncodeError: a value JSON cannot carry is a 500 with a
// reason, never the intended status with an empty body.
func TestWriteJSONEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"value": make(chan int)})
	if rec.Code != http.StatusInternalServerError || rec.Body.Len() == 0 {
		t.Fatalf("status %d, body %q; want 500 with an error body", rec.Code, rec.Body.String())
	}
}

// TestBlockcentricHonoursMode: "mode" reaches blockcentric.Config.Mode.
// On a grid most of a range block's edges are block-local, so the
// default mode pulls supersteps; a forced push must pull none.
func TestBlockcentricHonoursMode(t *testing.T) {
	s := New(4, 1)
	defer s.Close()
	if err := s.RegisterGraph(GraphSpec{Name: "grid", Gen: "grid", N: 12}); err != nil {
		t.Fatal(err)
	}
	pulled := map[string]int{}
	for _, mode := range []string{"", "push"} {
		job, err := s.Submit(JobSpec{Graph: "grid", Algo: "pagerank", Engine: "blockcentric", Mode: mode, Workers: 4, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		pulled[mode] = waitResult(t, s, job).summary.Pulled
	}
	if pulled[""] == 0 || pulled["push"] != 0 {
		t.Fatalf("pulled supersteps: default mode %d (want > 0), push %d (want 0)", pulled[""], pulled["push"])
	}
}
