package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"vcgraph/internal/bsp"
	"vcgraph/internal/graph"
	"vcgraph/internal/seq"
	"vcgraph/internal/service"
)

// Frozen sizes of serve-mixed (full, -smoke). A pass is serveCopies jobs
// of every kind in the serving matrix plus serveRounds evolve rounds.
const (
	servePLN, servePLNSmoke       = 3000, 120 // "pl" and "evolve": powerlaw, m = 3
	serveSide, serveSideSmoke     = 32, 6     // "grid": side × side
	serveCopies, serveCopiesSmoke = 3, 1      // jobs per (graph, algo, engine) kind
	serveRounds, serveRoundsSmoke = 30, 4     // mutate + inc job (+ verifier) rounds
	mutationsPerRound             = 8
	verifyEvery                   = 10 // every tenth round an async job checks the inc verdict
	serveK                        = 10
	faultEvery                    = 10 // one job in ten runs with checkpoints and a fault plan
)

// jobKind is one cell of the serving matrix on one graph.
type jobKind struct {
	graph, algo, engine string
}

// serveJob is one scheduled job operation: the spec to POST, the three
// vertices to query afterwards, and its oracle.
type serveJob struct {
	kind    jobKind
	spec    service.JobSpec
	queries [3]int
}

// graphOracle is what set-up computed sequentially on a local copy of a
// registered graph.
type graphOracle struct {
	g         *graph.Graph
	ranksK    []float64 // seq.PageRank at serveK iterations
	ranksConv []float64 // seq.PageRank at 200 iterations, for the eps-converged engines
	dist      []float64
	labels    []graph.VertexID
	cores     []int32
}

type serveMixed struct {
	srv     *service.Server
	http    *http.Server
	served  chan error // result of http.Serve, for close to wait on
	base    string     // http://127.0.0.1:port
	clients []*http.Client

	oracles map[string]*graphOracle
	jobs    []serveJob // the pass's job schedule, in order

	// evolve client state, owned by client 0 and carried across passes.
	edges    [][2]int32            // live edges of "evolve"
	edgeSet  map[[2]int32]struct{} // same, for membership
	evolveN  int
	rng      *rand.Rand
	prevInc  map[string]int64 // last inc job per algorithm, to resume from
	rounds   int              // evolve rounds done so far
	incEpoch int64            // mutation epoch of "evolve"
}

func (s *serveMixed) setup(b *bench) error {
	n, side := b.scale(servePLN, servePLNSmoke), b.scale(serveSide, serveSideSmoke)
	seed := b.opt.seed

	maxJobs := b.w - 1
	if maxJobs < 1 {
		maxJobs = 1
	}
	s.srv = service.NewServer(service.Options{Workers: b.w, MaxJobs: maxJobs})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.http.Serve(ln) }()
	for i := 0; i < b.w; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}

	// Local copies of the registered graphs, built the way the service
	// builds them, carry the oracles.
	pl := b.generate(func() *graph.Graph {
		return nearUnitWeights(graph.PreferentialAttachment(n, 3, seed), seed+1)
	})
	var plEdges [][]float64
	for _, e := range pl.UndirectedEdges() {
		plEdges = append(plEdges, []float64{float64(e.U), float64(e.V), e.W})
	}
	grid := b.generate(func() *graph.Graph { return graph.Grid(side, side) })
	evolve := b.generate(func() *graph.Graph { return graph.PreferentialAttachment(n, 3, seed+2) })
	s.oracles = map[string]*graphOracle{"pl": oracleOf(pl), "grid": oracleOf(grid)}
	for _, spec := range []service.GraphSpec{
		{Name: "pl", N: n, Edges: plEdges}, // explicit, for the near-unit weights
		{Name: "grid", Gen: "grid", N: side},
		{Name: "evolve", Gen: "powerlaw", N: n, M: 3, Seed: seed + 2},
	} {
		var info struct {
			Epoch int64 `json:"epoch"`
		}
		sp := b.tr.begin("service.register", -1, b.tr.newOp())
		err := s.call(s.clients[0], "POST", "/v1/graphs", spec, http.StatusCreated, &info)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		s.incEpoch = info.Epoch // of "evolve", the last one registered
	}

	s.evolveN = n
	s.edgeSet = map[[2]int32]struct{}{}
	for _, e := range evolve.UndirectedEdges() {
		k := [2]int32{int32(e.U), int32(e.V)}
		s.edges = append(s.edges, k)
		s.edgeSet[k] = struct{}{}
	}
	s.rng = rand.New(rand.NewSource(seed + 3))
	s.prevInc = map[string]int64{}
	s.jobs = s.schedule(b)
	return nil
}

func oracleOf(g *graph.Graph) *graphOracle {
	return &graphOracle{
		g:         g,
		ranksK:    seq.PageRank(g, alpha, serveK, &seq.Ops{}),
		ranksConv: seq.PageRank(g, alpha, 200, &seq.Ops{}),
		dist:      seq.Dijkstra(g, 0, &seq.Ops{}),
		labels:    seq.Components(g, &seq.Ops{}),
		cores:     seq.KCore(g, &seq.Ops{}),
	}
}

// schedule lays out the pass's jobs: every kind serveCopies times, so
// the mix does not depend on the seed; the seed fixes the order, the
// queried vertices and the fault plans.
func (s *serveMixed) schedule(b *bench) []serveJob {
	var kinds []jobKind
	for _, g := range []string{"pl", "grid"} {
		for _, algo := range []string{"pagerank", "sssp", "cc"} {
			for _, engine := range []string{"pregel", "gas", "async", "blockcentric", "auto"} {
				kinds = append(kinds, jobKind{g, algo, engine})
			}
		}
		kinds = append(kinds, jobKind{g, "kcore", "pregel"})
	}
	rng := rand.New(rand.NewSource(b.opt.seed))
	var jobs []serveJob
	for c := 0; c < b.scale(serveCopies, serveCopiesSmoke); c++ {
		for _, k := range kinds {
			j := serveJob{kind: k, spec: service.JobSpec{Graph: k.graph, Algo: k.algo, Engine: k.engine, Workers: b.w, K: serveK}}
			if len(jobs)%faultEvery == faultEvery-1 {
				j.spec.CheckpointEvery, j.spec.FullSnapshot, j.spec.Faults = 2, 4, b.opt.seed
			}
			for q := range j.queries {
				j.queries[q] = rng.Intn(s.oracles[k.graph].g.N())
			}
			jobs = append(jobs, j)
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// pass runs the whole schedule over W closed-loop clients: client 0 owns
// the evolving graph, the others share the jobs round-robin. With one
// client, it does both in turn.
func (s *serveMixed) pass(b *bench, p *passStats) {
	parts := make([]*passStats, b.w)
	var wg sync.WaitGroup
	for c := 0; c < b.w; c++ {
		parts[c] = newPassStats()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, cp := s.clients[c], parts[c]
			if c == 0 {
				for r := 0; r < b.scale(serveRounds, serveRoundsSmoke); r++ {
					s.evolveRound(b, cl, cp)
				}
			}
			// Jobs go round-robin to clients 1..W-1; a lone client runs
			// them all after its rounds.
			first, stride := c-1, b.w-1
			if b.w == 1 {
				first, stride = 0, 1
			}
			for i := first; i >= 0 && i < len(s.jobs); i += stride {
				s.runScheduled(b, cl, cp, s.jobs[i])
			}
		}(c)
	}
	wg.Wait()
	for _, cp := range parts {
		p.merge(cp)
	}
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	ID      int64        `json:"id"`
	State   string       `json:"state"`
	Error   string       `json:"error"`
	Verdict string       `json:"verdict"`
	Epoch   int64        `json:"epoch"`
	Cold    bool         `json:"cold"`
	Summary *bsp.Summary `json:"summary"`
	Plan    *struct {
		Decisions []json.RawMessage `json:"decisions"`
		Segments  int               `json:"segments"`
	} `json:"plan"`
}

func terminal(state string) bool {
	return state == "succeeded" || state == "failed" || state == "cancelled"
}

// call makes one request and decodes the JSON reply into out when the
// status is the wanted one.
func (s *serveMixed) call(cl *http.Client, method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// runJob submits spec, polls it to a terminal state on a fixed back-off
// (100 µs doubling to 2 ms) and returns the final status. The latency it
// records runs from sending the POST to seeing the terminal state.
func (s *serveMixed) runJob(b *bench, cl *http.Client, p *passStats, spec service.JobSpec, root, id int) (*jobStatus, time.Duration, error) {
	fail := func(err error) (*jobStatus, time.Duration, error) {
		p.add("service.http_errors", 1)
		return nil, 0, err
	}
	start := time.Now()
	var ack jobStatus
	sp := b.tr.begin("service.submit", root, id)
	err := s.call(cl, "POST", "/v1/jobs", spec, http.StatusAccepted, &ack)
	b.tr.end(sp)
	if err != nil {
		return fail(err)
	}
	acked := time.Now()
	admitted := false
	path := fmt.Sprintf("/v1/jobs/%d", ack.ID)
	var st jobStatus
	for wait := 100 * time.Microsecond; ; wait = min(2*wait, 2*time.Millisecond) {
		st = jobStatus{}
		sp := b.tr.begin("service.status", root, id)
		err := s.call(cl, "GET", path, nil, http.StatusOK, &st)
		b.tr.end(sp)
		if err != nil {
			return fail(err)
		}
		p.add("service.polls", 1)
		if !admitted && st.State != "queued" {
			admitted = true
			p.add("runtime.admit_wait_s", time.Since(acked).Seconds())
		}
		if terminal(st.State) {
			break
		}
		time.Sleep(wait)
	}
	lat := time.Since(start)
	p.lat = append(p.lat, lat)
	p.add("service.jobs", 1)
	p.add("runtime.jobs", 1)
	if st.State != "succeeded" {
		return nil, lat, fmt.Errorf("job %d ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.Summary == nil {
		return nil, lat, fmt.Errorf("job %d has no summary", st.ID)
	}
	recordSummary(p, layerOf(spec.Engine), *st.Summary)
	if st.Plan != nil {
		recordPlan(p, st.Plan.Segments, len(st.Plan.Decisions))
	}
	return &st, lat, nil
}

// runScheduled is one job operation: submit, poll, three point queries,
// all checked against the oracle.
func (s *serveMixed) runScheduled(b *bench, cl *http.Client, p *passStats, j serveJob) {
	id := b.tr.newOp()
	root := b.tr.begin("op job "+j.kind.algo+"/"+j.kind.engine, -1, id)
	err := func() error {
		st, _, err := s.runJob(b, cl, p, j.spec, root, id)
		if err != nil {
			return err
		}
		or := s.oracles[j.kind.graph]
		if err := or.checkVerdict(j.kind, st.Verdict); err != nil {
			return err
		}
		for _, v := range j.queries {
			var reply struct {
				Value float64 `json:"value"`
			}
			sp := b.tr.begin("service.query", root, id)
			err := s.call(cl, "GET", fmt.Sprintf("/v1/jobs/%d/query?vertex=%d", st.ID, v), nil, http.StatusOK, &reply)
			b.tr.end(sp)
			if err != nil {
				p.add("service.http_errors", 1)
				return err
			}
			if err := or.checkValue(j.kind, v, reply.Value); err != nil {
				return err
			}
		}
		return nil
	}()
	b.tr.end(root)
	if err != nil {
		err = fmt.Errorf("%s %s/%s: %w", j.kind.graph, j.kind.algo, j.kind.engine, err)
	}
	p.op(err)
}

// converged says whether the service runs this kind's PageRank to its
// eps instead of for K iterations.
func (k jobKind) converged() bool { return k.engine == "gas" || k.engine == "async" }

func (o *graphOracle) ranks(k jobKind) ([]float64, float64) {
	if k.converged() {
		return o.ranksConv, 1e-6
	}
	return o.ranksK, 1e-9
}

// checkVerdict compares the one-line verdict of a finished job with the
// oracle. The PageRank verdict prints six decimals, hence the 1e-6.
func (o *graphOracle) checkVerdict(k jobKind, verdict string) error {
	bad := func() error { return fmt.Errorf("verdict %q disagrees with the oracle", verdict) }
	switch k.algo {
	case "pagerank":
		var v int
		var r float64
		if _, err := fmt.Sscanf(verdict, "top vertex %d with rank %f", &v, &r); err != nil || v < 0 || v >= len(o.ranksK) {
			return bad()
		}
		want, tol := o.ranks(k)
		top := 0.0
		for _, x := range want {
			top = max(top, x)
		}
		// Symmetric graphs tie for the top rank, so any vertex within
		// tolerance of the maximum is a right answer.
		if math.Abs(r-want[v]) > tol+1e-6 || want[v] < top-tol-1e-6 {
			return bad()
		}
	case "sssp":
		reached := 0
		for _, d := range o.dist {
			if !unreachable(d) {
				reached++
			}
		}
		if verdict != fmt.Sprintf("%d vertices reachable from 0", reached) {
			return bad()
		}
	case "cc":
		comps := 0
		for v, l := range o.labels {
			if int(l) == v {
				comps++
			}
		}
		if verdict != fmt.Sprintf("%d components", comps) {
			return bad()
		}
	case "kcore":
		var deg int32
		for _, c := range o.cores {
			deg = max(deg, c)
		}
		if verdict != fmt.Sprintf("degeneracy %d", deg) {
			return bad()
		}
	}
	return nil
}

// checkValue compares one point-query reply with the oracle. Every
// engine labels a component with its smallest vertex, as seq.Components
// does, so labels compare directly.
func (o *graphOracle) checkValue(k jobKind, v int, got float64) error {
	var want, tol float64
	switch k.algo {
	case "pagerank":
		ranks, t := o.ranks(k)
		want, tol = ranks[v], t
	case "sssp":
		want = o.dist[v]
		if unreachable(want) && unreachable(got) {
			return nil
		}
	case "cc":
		want = float64(o.labels[v])
	case "kcore":
		want = float64(o.cores[v])
	}
	if !(math.Abs(got-want) <= tol) {
		return fmt.Errorf("vertex %d has value %g, want %g", v, got, want)
	}
	return nil
}

// evolveRound is one round of client 0: a batch of seeded inserts and
// deletes, then an incremental job resuming the previous one of the same
// algorithm, and every verifyEvery-th round an async job from scratch
// whose verdict must match.
func (s *serveMixed) evolveRound(b *bench, cl *http.Client, p *passStats) {
	round := s.rounds
	s.rounds++

	muts := s.nextMutations()
	id := b.tr.newOp()
	var info struct {
		M     int   `json:"m"`
		Epoch int64 `json:"epoch"`
	}
	sp := b.tr.begin("graph.mutate", -1, id)
	err := s.call(cl, "POST", "/v1/graphs/evolve/mutate", map[string]any{"mutations": muts}, http.StatusOK, &info)
	b.tr.end(sp)
	switch {
	case err != nil:
		p.add("service.http_errors", 1)
	case info.M != len(s.edges) || info.Epoch != s.incEpoch+1:
		err = fmt.Errorf("mutate: graph reports m=%d epoch=%d, want m=%d epoch=%d", info.M, info.Epoch, len(s.edges), s.incEpoch+1)
	}
	p.op(err)
	if err != nil {
		return
	}
	s.incEpoch = info.Epoch

	algo := []string{"cc", "sssp"}[round%2]
	id = b.tr.newOp()
	root := b.tr.begin("op job "+algo+"/inc", -1, id)
	spec := service.JobSpec{Graph: "evolve", Algo: algo, Engine: "inc", Resume: s.prevInc[algo]}
	st, lat, err := s.runJob(b, cl, p, spec, root, id)
	b.tr.end(root)
	if err == nil && st.Epoch != s.incEpoch {
		err = fmt.Errorf("inc job ran at epoch %d, want %d", st.Epoch, s.incEpoch)
	}
	if err != nil {
		p.op(fmt.Errorf("evolve %s/inc: %w", algo, err))
		return
	}
	p.op(nil)
	s.prevInc[algo] = st.ID
	p.add("vc.inc_jobs", 1)
	if st.Cold {
		p.add("vc.inc_cold_jobs", 1)
	} else {
		p.add("vc.inc_warm_jobs", 1)
		p.add("vc.inc_warm_s", lat.Seconds())
	}

	if round%verifyEvery != verifyEvery-1 {
		return
	}
	id = b.tr.newOp()
	root = b.tr.begin("op job "+algo+"/async", -1, id)
	vst, _, err := s.runJob(b, cl, p, service.JobSpec{Graph: "evolve", Algo: algo, Engine: "async"}, root, id)
	b.tr.end(root)
	if err == nil && (vst.Verdict != st.Verdict || vst.Epoch != st.Epoch) {
		err = fmt.Errorf("inc verdict %q at epoch %d, async from scratch says %q at epoch %d", st.Verdict, st.Epoch, vst.Verdict, vst.Epoch)
	}
	if err != nil {
		p.op(fmt.Errorf("evolve %s/async verifier: %w", algo, err))
		return
	}
	p.op(nil)
	p.add("vc.inc_verified_work", float64(st.Summary.TotalWork))
	p.add("vc.async_verifier_work", float64(vst.Summary.TotalWork))
}

// nextMutations draws the round's batch against the mirrored edge set:
// half deletes of live edges, half inserts of absent ones, so every
// batch is valid and the edge count stays put.
func (s *serveMixed) nextMutations() []service.MutationSpec {
	muts := make([]service.MutationSpec, 0, mutationsPerRound)
	for i := 0; i < mutationsPerRound/2; i++ {
		at := s.rng.Intn(len(s.edges))
		e := s.edges[at]
		s.edges[at] = s.edges[len(s.edges)-1]
		s.edges = s.edges[:len(s.edges)-1]
		delete(s.edgeSet, e)
		muts = append(muts, service.MutationSpec{Op: "delete", U: int(e[0]), V: int(e[1])})
	}
	for len(muts) < mutationsPerRound {
		u, v := int32(s.rng.Intn(s.evolveN)), int32(s.rng.Intn(s.evolveN))
		if u > v {
			u, v = v, u
		}
		e := [2]int32{u, v}
		if _, dup := s.edgeSet[e]; dup || u == v {
			continue
		}
		s.edgeSet[e] = struct{}{}
		s.edges = append(s.edges, e)
		muts = append(muts, service.MutationSpec{Op: "insert", U: int(u), V: int(v)})
	}
	return muts
}

// attribute replays the pass's scheduled jobs straight on the engines,
// one at a time through the benchmark's own scheduler while the server
// is idle: serve-mixed sees engines only through HTTP, and the replay is
// what splits a job's time into prepare and run. Fault plans are left
// out of the replay.
func (s *serveMixed) attribute(b *bench, p *passStats) {
	b.attributeGraph(s.oracles["pl"].g)
	for _, j := range s.jobs {
		b.runEngineOp(s.oracles[j.kind.graph].engineOp(j.kind, b.w), p)
	}
}

// engineOp is the direct form of a job kind, as service/runner.go maps it.
func (o *graphOracle) engineOp(k jobKind, w int) engineOp {
	var op engineOp
	switch k.algo {
	case "pagerank":
		want, tol := o.ranks(k)
		iters := serveK
		if k.converged() {
			iters = 0
		}
		op = pagerankOp(o.g, k.engine, iters, w, want, tol)
	case "sssp":
		op = ssspOp(o.g, k.engine, w, o.dist)
	case "cc":
		op = ccOp(o.g, k.engine, w, false, o.labels)
	default:
		op = kcoreOp(o.g, w, o.cores)
	}
	return on(k.graph, op)
}

func (s *serveMixed) close() {
	if s.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.http.Shutdown(ctx); err != nil {
			s.http.Close()
		}
		cancel()
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "benchmark: serve-mixed: server:", err)
		}
	}
	for _, cl := range s.clients {
		cl.CloseIdleConnections()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}
