package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json at
// the repository root declares the same lists; manifest_test.go fails
// when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, measured with tracing off. failed_share is not in
// the list because it must be 0: it is the failed/attempted pair of the
// result line.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p90_ms", "ms", "lower", 0.25},
	{"alloc_mb", "MiB", "lower", 0.10},
}

// engineLayers are the four engines; each gets the same seven metrics.
var engineLayers = []string{"pregel", "gas", "async", "blockcentric"}

// perLayer is printed by the traced run. A metric a workload cannot
// exercise (service.* on the batch workloads, graph.parse_s off
// ingest-packed) reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{Name: "graph.generate_s", Unit: "s", Better: "lower"},
		{Name: "graph.parse_s", Unit: "s", Better: "lower"},
		{Name: "graph.csr_build_s", Unit: "s", Better: "lower"},
		{Name: "graph.pack_s", Unit: "s", Better: "lower"},
		{Name: "graph.vcsr_write_s", Unit: "s", Better: "lower"},
		{Name: "graph.vcsr_open_s", Unit: "s", Better: "lower"},
		{Name: "graph.edge_bytes_flat", Unit: "B", Better: "lower"},
		{Name: "graph.edge_bytes_packed", Unit: "B", Better: "lower"},
		{Name: "graph.mutate_ms", Unit: "ms", Better: "lower"},
		{Name: "runtime.supersteps", Unit: "count", Better: "lower"},
		{Name: "runtime.superstep_us", Unit: "us", Better: "lower"},
		{Name: "runtime.partition_s", Unit: "s", Better: "lower"},
		{Name: "runtime.admit_wait_ms", Unit: "ms", Better: "lower"},
		{Name: "runtime.delta_checkpoints", Unit: "count", Better: "higher"},
		{Name: "runtime.checkpoint_bytes_full", Unit: "B", Better: "lower"},
		{Name: "runtime.checkpoint_bytes_delta", Unit: "B", Better: "lower"},
		{Name: "runtime.rollbacks", Unit: "count", Better: "lower"},
		{Name: "runtime.redone_supersteps", Unit: "count", Better: "lower"},
		{Name: "runtime.imbalance", Unit: "ratio", Better: "lower"},
	}
	for _, e := range engineLayers {
		m = append(m,
			metricDef{Name: e + ".prepare_s", Unit: "s", Better: "lower"},
			metricDef{Name: e + ".run_s", Unit: "s", Better: "lower"},
			metricDef{Name: e + ".messages", Unit: "count", Better: "lower"},
			metricDef{Name: e + ".work", Unit: "count", Better: "lower"},
			metricDef{Name: e + ".pulled_supersteps", Unit: "count", Better: "higher"},
			metricDef{Name: e + ".allocs_per_superstep", Unit: "count", Better: "lower"},
			metricDef{Name: e + ".model_cost", Unit: "cost", Better: "lower"},
		)
	}
	return append(m,
		metricDef{Name: "vc.auto_run_s", Unit: "s", Better: "lower"},
		metricDef{Name: "vc.auto_switches", Unit: "count", Better: "lower"},
		metricDef{Name: "vc.auto_vs_best_fixed", Unit: "ratio", Better: "lower"},
		metricDef{Name: "vc.packed_tax", Unit: "ratio", Better: "lower"},
		metricDef{Name: "vc.inc_warm_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "vc.inc_cold_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "vc.inc_work_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "plan.sample_s", Unit: "s", Better: "lower"},
		metricDef{Name: "plan.decisions", Unit: "count", Better: "lower"},
		metricDef{Name: "service.submit_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "service.status_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "service.query_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "service.polls_per_job", Unit: "count", Better: "lower"},
		metricDef{Name: "service.http_errors", Unit: "count", Better: "lower"},
		metricDef{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	)
}

// passStats is what one pass (or one client's part of one) records.
type passStats struct {
	wall      time.Duration
	allocB    uint64
	attempted int
	failed    int
	errs      []error         // first few failures, for the report
	lat       []time.Duration // submit-to-terminal time of each job
	// c holds the pass's layer counters by name: counts the layers
	// returned (messages, supersteps, checkpoint bytes) and sums the
	// benchmark took without a span (admission waits, mallocs).
	c map[string]float64
	// runs is the time each engine job's run closure took.
	runs map[runKey]float64
	// spans is the half-open range of tracer spans the pass recorded.
	spanLo, spanHi int
}

// runKey names an engine job: which of the workload's graphs, which
// algorithm, which engine.
type runKey struct{ graph, algo, engine string }

func newPassStats() *passStats {
	return &passStats{c: map[string]float64{}, runs: map[runKey]float64{}}
}

func (p *passStats) add(name string, v float64) { p.c[name] += v }

// op records one verified operation.
func (p *passStats) op(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err)
		}
	}
}

// merge folds a client's share of a pass into the pass.
func (p *passStats) merge(o *passStats) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.lat = append(p.lat, o.lat...)
	for _, e := range o.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
	for k, v := range o.c {
		p.c[k] += v
	}
}

// ratio is a/b, and 0 where the workload gives no denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
