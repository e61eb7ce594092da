package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"vcgraph/internal/bsp"
)

// Handler returns the daemon's HTTP API:
//
//	GET  /v1/healthz                  liveness + scheduler load
//	POST /v1/graphs                   register a graph (GraphSpec body)
//	GET  /v1/graphs/{name}            graph shape + mutation epoch
//	POST /v1/graphs/{name}/edges      append edges {"edges": [[u,v,w?], ...]}
//	POST /v1/graphs/{name}/mutate     apply a mutation batch {"mutations": [{"op","u","v","w"?}, ...]}
//	POST /v1/jobs                     submit a job (JobSpec body)
//	GET  /v1/jobs/{id}                job status (+ result summary when done)
//	GET  /v1/jobs/{id}/stats?since=K  stream per-superstep records from K
//	POST /v1/jobs/{id}/cancel         cancel a queued or running job
//	GET  /v1/jobs/{id}/query?vertex=V point-query a finished job's value
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/graphs", s.handleRegisterGraph)
	mux.HandleFunc("GET /v1/graphs/{name}", s.handleGraphInfo)
	mux.HandleFunc("POST /v1/graphs/{name}/edges", s.handleAddEdges)
	mux.HandleFunc("POST /v1/graphs/{name}/mutate", s.handleMutate)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stats", s.handleJobStats)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/query", s.handleQuery)
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

// writeJSON encodes v before committing the status line, so a value
// JSON cannot carry answers 500 with the reason instead of the intended
// status and an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		// An errorBody is one string: encoding it cannot fail.
		_ = enc.Encode(errorBody{Error: "service: encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client went away; nobody is left to tell.
	_, _ = w.Write(buf.Bytes())
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// codeFor maps service errors to HTTP statuses: unknown names are 404,
// everything else raised at the API boundary is a bad request.
func codeFor(err error) int {
	if errors.Is(err, errUnknownGraph) || errors.Is(err, errUnknownJob) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// maxBodyBytes bounds a request body: an edge batch or a mutation
// batch of a million entries fits several times over.
const maxBodyBytes = 64 << 20

// decodeBody decodes a request body that must hold exactly one JSON
// value; trailing data (a second value, garbage) is a bad request, and
// a body longer than maxBodyBytes answers 413 once that much is read.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, err)
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeErr(w, http.StatusBadRequest, errTrailingData)
		return false
	}
	return true
}

var errTrailingData = errors.New("service: request body holds data after its JSON value")

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"inflight": s.sched.InFlight(),
		"queued":   s.sched.QueueLen(),
		"max_jobs": s.sched.MaxJobs(),
	})
}

func (s *Server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	var spec GraphSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	if err := s.RegisterGraph(spec); err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	n, m, directed, epoch, _ := s.GraphInfo(spec.Name)
	writeJSON(w, http.StatusCreated, map[string]any{
		"name": spec.Name, "n": n, "m": m, "directed": directed, "epoch": epoch,
	})
}

func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	n, m, directed, epoch, err := s.GraphInfo(r.PathValue("name"))
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name": r.PathValue("name"), "n": n, "m": m, "directed": directed, "epoch": epoch,
	})
}

func (s *Server) handleAddEdges(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Edges [][]float64 `json:"edges"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	if err := s.AddEdges(r.PathValue("name"), body.Edges); err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	n, m, directed, epoch, _ := s.GraphInfo(r.PathValue("name"))
	writeJSON(w, http.StatusOK, map[string]any{
		"name": r.PathValue("name"), "n": n, "m": m, "directed": directed, "epoch": epoch,
	})
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Mutations []MutationSpec `json:"mutations"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	epoch, err := s.MutateGraph(r.PathValue("name"), body.Mutations)
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	n, m, directed, _, _ := s.GraphInfo(r.PathValue("name"))
	writeJSON(w, http.StatusOK, map[string]any{
		"name": r.PathValue("name"), "n": n, "m": m, "directed": directed, "epoch": epoch,
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		writeErr(w, codeFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id": job.ID(), "state": job.State().String(),
	})
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*jobRecord, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	rec, err := s.JobRecord(id)
	if err != nil {
		writeErr(w, codeFor(err), err)
		return nil, false
	}
	return rec, true
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	job := rec.job
	status := map[string]any{
		"id":      job.ID(),
		"name":    job.Name(),
		"graph":   rec.spec.Graph,
		"state":   job.State().String(),
		"workers": job.Workers(),
		"steps":   job.Steps(),
	}
	res := rec.result()
	if rec.spec.Incremental {
		status["incremental"] = true
		if rec.spec.Resume != 0 {
			status["resume"] = rec.spec.Resume
		}
		if res != nil {
			status["cold"] = res.prior.Cold
		}
	}
	if err := job.Err(); err != nil {
		status["error"] = err.Error()
	}
	if res != nil {
		status["verdict"] = res.verdict
		status["summary"] = res.summary
		status["epoch"] = res.prior.Epoch
		if res.auto != nil {
			status["plan"] = res.auto
		}
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleJobStats(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	since := 0
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.Atoi(q)
		if err == nil && n < 0 {
			err = errors.New("since: a record index is not negative")
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		since = n
	}
	trace := rec.job.TraceSince(since)
	records := make([]bsp.SuperstepRecord, len(trace))
	for i, ss := range trace {
		records[i] = bsp.Record(since+i, ss)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"records": records,
		"next":    since + len(records),
		"state":   rec.job.State().String(),
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	rec.job.Cancel(nil)
	writeJSON(w, http.StatusOK, map[string]any{
		"id": rec.job.ID(), "state": rec.job.State().String(),
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	res := rec.result()
	if res == nil {
		writeErr(w, http.StatusConflict,
			errors.New("service: job has no result (state "+rec.job.State().String()+")"))
		return
	}
	v, err := strconv.Atoi(r.URL.Query().Get("vertex"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if v < 0 || v >= len(res.values) {
		writeErr(w, http.StatusBadRequest,
			errors.New("service: vertex out of range"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": rec.job.ID(), "vertex": v, "value": res.values[v],
	})
}
