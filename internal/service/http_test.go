package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vcgraph/internal/graph"
	"vcgraph/internal/vc"
)

func doJSON(t *testing.T, method, url string, body any, wantCode int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding body: %v", method, url, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d, want %d (body %v)", method, url, resp.StatusCode, wantCode, out)
	}
	return out
}

// TestHTTPEndToEnd drives the full daemon surface over a live
// listener: health, register, submit, poll to completion, stream
// stats, and point-query — with the queried value checked against a
// direct library run of the same computation.
func TestHTTPEndToEnd(t *testing.T) {
	s := New(2, 2)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	health := doJSON(t, "GET", ts.URL+"/v1/healthz", nil, http.StatusOK)
	if health["ok"] != true || health["max_jobs"] != float64(2) {
		t.Fatalf("healthz = %v", health)
	}

	reg := doJSON(t, "POST", ts.URL+"/v1/graphs",
		GraphSpec{Name: "web", Gen: "connected", N: 300, M: 900, Seed: 5}, http.StatusCreated)
	if reg["n"] != float64(300) {
		t.Fatalf("register = %v", reg)
	}
	info := doJSON(t, "GET", ts.URL+"/v1/graphs/web", nil, http.StatusOK)
	if info["n"] != float64(300) || info["directed"] != false {
		t.Fatalf("graph info = %v", info)
	}

	sub := doJSON(t, "POST", ts.URL+"/v1/jobs",
		JobSpec{Graph: "web", Algo: "pagerank", Engine: "pregel", Workers: 2, K: 20}, http.StatusAccepted)
	id := int64(sub["id"].(float64))
	jobURL := fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id)

	var status map[string]any
	deadline := time.Now().Add(10 * time.Second)
	for {
		status = doJSON(t, "GET", jobURL, nil, http.StatusOK)
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
	if _, ok := status["verdict"].(string); !ok {
		t.Fatalf("no verdict in %v", status)
	}
	summary := status["summary"].(map[string]any)
	if summary["supersteps"].(float64) < 1 {
		t.Fatalf("summary = %v", summary)
	}

	stats := doJSON(t, "GET", jobURL+"/stats?since=0", nil, http.StatusOK)
	records := stats["records"].([]any)
	if len(records) == 0 {
		t.Fatalf("stats stream empty: %v", stats)
	}
	next := int(stats["next"].(float64))
	if next != len(records) {
		t.Fatalf("next = %d with %d records", next, len(records))
	}
	tail := doJSON(t, "GET", fmt.Sprintf("%s/stats?since=%d", jobURL, next), nil, http.StatusOK)
	if n, _ := tail["records"].([]any); len(n) != 0 {
		t.Fatalf("stats past the end returned %d records", len(n))
	}
	for _, bad := range []string{"-3", "x"} {
		doJSON(t, "GET", jobURL+"/stats?since="+bad, nil, http.StatusBadRequest)
	}

	// The daemon's point query must match a direct library run on the
	// same generator graph.
	g := graph.RandomConnected(300, 900, 5)
	res, err := vc.PageRank(g, 0.85, 20, vc.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	query := doJSON(t, "GET", jobURL+"/query?vertex=17", nil, http.StatusOK)
	if got := query["value"].(float64); got != res.Ranks[17] {
		t.Fatalf("query value %v != library run %v", got, res.Ranks[17])
	}

	// A body one byte past the bound answers 413. It is streamed, so
	// only the server holds it.
	resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", io.LimitReader(spaces{}, maxBodyBytes+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestHTTPRejectsTrailingData: a request body is one JSON value. A
// second value or garbage after it is a bad request and submits no job.
func TestHTTPRejectsTrailingData(t *testing.T) {
	s := New(2, 1)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	doJSON(t, "POST", ts.URL+"/v1/graphs", GraphSpec{Name: "g", Gen: "path", N: 8}, http.StatusCreated)
	for _, body := range []string{
		`{"graph":"g","algo":"cc"}{"graph":"g","algo":"pagerank"}`,
		`{"graph":"g","algo":"cc"}garbage`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want %d", body, resp.StatusCode, http.StatusBadRequest)
		}
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 0 {
		t.Fatalf("rejected bodies submitted %d jobs", jobs)
	}
}

// TestHTTPErrors checks the error mapping: 404 for unknown names, 400
// for malformed input, 409 for querying an unfinished job.
func TestHTTPErrors(t *testing.T) {
	s := New(2, 1)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doJSON(t, "GET", ts.URL+"/v1/graphs/none", nil, http.StatusNotFound)
	doJSON(t, "GET", ts.URL+"/v1/jobs/99", nil, http.StatusNotFound)
	doJSON(t, "GET", ts.URL+"/v1/jobs/xyz", nil, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/v1/jobs",
		JobSpec{Graph: "none", Algo: "pagerank"}, http.StatusNotFound)
	doJSON(t, "POST", ts.URL+"/v1/graphs",
		map[string]any{"name": "g", "gen": "path", "n": 8, "bogus": true}, http.StatusBadRequest)

	doJSON(t, "POST", ts.URL+"/v1/graphs",
		GraphSpec{Name: "g", Gen: "connected", N: 300, M: 900, Seed: 1}, http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/v1/jobs",
		JobSpec{Graph: "g", Algo: "kcore", Engine: "async"}, http.StatusBadRequest)

	grown := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges",
		map[string]any{"edges": [][]float64{{0, 7}, {1, 9, 0.5}}}, http.StatusOK)
	if grown["m"] != float64(902) {
		t.Fatalf("edge append = %v, want m=902", grown)
	}
	doJSON(t, "POST", ts.URL+"/v1/graphs/none/edges",
		map[string]any{"edges": [][]float64{{0, 1}}}, http.StatusNotFound)
	doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges",
		map[string]any{"edges": [][]float64{{0, 900}}}, http.StatusBadRequest)

	// Submit a long job; querying before completion is a conflict, and
	// the cancel endpoint tears it down.
	sub := doJSON(t, "POST", ts.URL+"/v1/jobs",
		JobSpec{Graph: "g", Algo: "pagerank", Workers: 2, K: 1 << 20}, http.StatusAccepted)
	id := int64(sub["id"].(float64))
	jobURL := fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id)
	doJSON(t, "GET", jobURL+"/query?vertex=0", nil, http.StatusConflict)
	doJSON(t, "POST", jobURL+"/cancel", nil, http.StatusOK)
	deadline := time.Now().Add(10 * time.Second)
	for {
		status := doJSON(t, "GET", jobURL, nil, http.StatusOK)
		if status["state"] == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel did not land: %v", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
