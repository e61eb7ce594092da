// Command benchmark is the repository's one benchmark: four named
// workloads over the whole stack (graph, runtime, the four engines, vc,
// plan, service), each reporting the same end-to-end metrics with tracing
// off and, in a traced run, per-layer metrics derived from spans around
// every call the benchmark makes into a layer and from the counts the
// layers return. README.md in this directory has the command, the
// workloads and the layer → end-to-end map.
//
//	bash benchmark/run.sh --workload dense-rank --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"strings"
	"time"

	rt "vcgraph/internal/runtime"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup generates the inputs from the seed, computes the oracles,
	// writes files and boots servers. It is timed as setup_s.
	setup(b *bench) error
	// pass does the workload's fixed work once, recording every
	// operation into p.
	pass(b *bench, p *passStats)
	// attribute runs, in a traced run only, the standalone measurements
	// no pass contains (partitioners, plan.Sample, the packed tax, engine
	// replays of the service's job mix), recording into p.
	attribute(b *bench, p *passStats)
	// close stops what setup started and removes what it wrote.
	close()
}

var workloads = map[string]func() workload{
	"dense-rank":      func() workload { return &denseRank{} },
	"sparse-frontier": func() workload { return &sparseFrontier{} },
	"ingest-packed":   func() workload { return &ingestPacked{} },
	"serve-mixed":     func() workload { return &serveMixed{} },
}

var workloadOrder = []string{"dense-rank", "sparse-frontier", "ingest-packed", "serve-mixed"}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	smoke    bool
	jsonOut  bool
	repeat   int
}

// bench is the state one run shares between its passes.
type bench struct {
	opt   options
	w     int // BSP workers, and client connections in serve-mixed
	tr    *tracer
	sched *rt.Scheduler // batch operations go through it, as cmd/vcrun's do
	tmp   string        // scratch directory, removed when the run ends
}

// scale picks the full-size or the -smoke constant.
func (b *bench) scale(full, smoke int) int {
	if b.opt.smoke {
		return smoke
	}
	return full
}

const (
	setupReps = 5 // set-ups per run; setup_s is their median
	minPasses = 3 // timed passes a run makes even when --seconds is short
)

// report is everything a run measured.
type report struct {
	Env       envStamp           `json:"env"`
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Setups    int                `json:"setups"`
	Passes    int                `json:"passes"`
	Jobs      int                `json:"jobs"` // latency samples behind job_p50_ms / job_p90_ms
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"metrics"`
	PassWalls []float64          `json:"pass_walls_s"` // untraced passes, in order
	Errors    []string           `json:"errors,omitempty"`

	// overheadQ1 is the lower quartile of traced ÷ untraced − 1 over the
	// pass pairs of a traced run; trace.overhead_share is their median.
	overheadQ1 float64
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds of timed passes")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "file the traced run writes its spans to (default: under the temporary directory)")
	flag.BoolVar(&o.smoke, "smoke", false, "graphs ~100x smaller and one short pass, for tests")
	flag.BoolVar(&o.jsonOut, "json", false, "print the report as JSON instead of text")
	flag.IntVar(&o.repeat, "repeat", 0, "run every workload (or the one named) this many times, each with another seed, and print per-metric median, quartiles and spread")
	flag.Parse()
	o.trace = trace != 0
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if o.repeat > 0 {
		if err := repeatRuns(o, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	rep, err := execute(o)
	if err != nil {
		fatal(err)
	}
	if o.jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		printReport(os.Stdout, rep)
	}
	if rep.Failed > 0 {
		// A wrong or failed operation makes the command fail, and no
		// result line is printed for a run whose numbers cannot be used.
		fatal(fmt.Errorf("%d of %d operations failed", rep.Failed, rep.Attempted))
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep.result()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// execute runs one workload once: set-up (several times, for a steady
// setup_s), one untimed warm-up pass, then timed passes until
// opt.seconds have been measured.
func execute(o options) (*report, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadOrder, ", "))
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	w := stdruntime.NumCPU()
	if w > 4 {
		w = 4
	}
	tmp, err := os.MkdirTemp("", "vcbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	b := &bench{opt: o, w: w, tmp: tmp, sched: rt.NewScheduler(w, 1)}
	defer b.sched.Close()
	if o.trace {
		b.tr = newTracer()
		b.tr.enable(true) // set-up is traced too: graph.generate_s comes from it
	}

	var wl workload
	var setups []float64
	setupLo := 0
	for i := 0; i < b.scale(setupReps, 1); i++ {
		if wl != nil {
			wl.close()
		}
		stdruntime.GC()
		setupLo = b.tr.mark()
		wl = mk()
		t0 := time.Now()
		if err := wl.setup(b); err != nil {
			wl.close()
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer wl.close()
	setupHi := b.tr.mark()

	b.tr.enable(false)
	warm := newPassStats()
	wl.pass(b, warm)

	// Timed passes. A traced run alternates untraced and traced passes,
	// so that each traced pass has an untraced neighbour, taken in the
	// same machine state, to be compared with.
	var plain, traced []*passStats
	passes := minPasses
	if o.smoke {
		passes = 1
	}
	if o.trace {
		passes *= 2
	}
	var measured time.Duration
	for i := 0; i < passes || (!o.smoke && measured.Seconds() < o.seconds); i++ {
		p := newPassStats()
		tracing := o.trace && i%2 == 1
		b.tr.enable(tracing)
		stdruntime.GC()
		var m0, m1 stdruntime.MemStats
		stdruntime.ReadMemStats(&m0)
		p.spanLo = b.tr.mark()
		t0 := time.Now()
		wl.pass(b, p)
		p.wall = time.Since(t0)
		p.spanHi = b.tr.mark()
		stdruntime.ReadMemStats(&m1)
		p.allocB = m1.TotalAlloc - m0.TotalAlloc
		measured += p.wall
		if tracing {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}

	rep := &report{Env: stamp(b), Workload: o.workload, Traced: o.trace, Values: map[string]float64{}}
	all := append(append([]*passStats{warm}, plain...), traced...)
	for _, p := range all {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		for _, e := range p.errs {
			if len(rep.Errors) < 5 {
				rep.Errors = append(rep.Errors, e.Error())
			}
		}
	}
	rep.Setups = len(setups)
	rep.Passes = len(plain) + len(traced)
	if !o.trace {
		endToEndValues(rep, setups, plain)
		return rep, nil
	}

	b.tr.enable(true)
	attr := newPassStats()
	attr.spanLo = b.tr.mark()
	wl.attribute(b, attr)
	attr.spanHi = b.tr.mark()
	b.tr.enable(false)
	rep.Attempted += attr.attempted
	rep.Failed += attr.failed
	for _, e := range attr.errs {
		rep.Errors = append(rep.Errors, e.Error())
	}
	perLayerValues(rep, b, setupLo, setupHi, plain, traced, attr)
	out := o.traceOut
	if out == "" {
		out = filepath.Join(os.TempDir(), fmt.Sprintf("vcbench-%s-%d.trace.json", o.workload, o.seed))
	}
	if err := b.tr.write(out); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	// Pass times on a shared runner swing by more than the 5 % being
	// tested for, so one ratio of medians proves nothing: the run fails
	// only when three quarters of its traced/untraced pairs show the
	// overhead. A -smoke run has a single pair of millisecond passes.
	if rep.overheadQ1 > maxTraceOverhead && !o.smoke {
		rep.Attempted++
		rep.Failed++
		rep.Errors = append(rep.Errors, fmt.Sprintf("tracing overhead: median %.1f%%, lower quartile %.1f%% of the pass pairs, limit %.0f%%",
			100*rep.Values["trace.overhead_share"], 100*rep.overheadQ1, 100*maxTraceOverhead))
	}
	return rep, nil
}

// maxTraceOverhead is the share of pass_s tracing may cost before the
// traced run counts as failed.
const maxTraceOverhead = 0.05

// endToEndValues fills in the metrics of an untraced run.
func endToEndValues(rep *report, setups []float64, passes []*passStats) {
	var walls, allocs, lats []float64
	var ops int
	var total time.Duration
	for _, p := range passes {
		rep.PassWalls = append(rep.PassWalls, p.wall.Seconds())
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.allocB)/(1<<20))
		for _, l := range p.lat {
			lats = append(lats, l.Seconds()*1e3)
		}
		ops += p.attempted - p.failed
		total += p.wall
	}
	rep.Jobs = len(lats)
	v := rep.Values
	v["setup_s"] = median(setups)
	v["pass_s"] = median(walls)
	v["ops_per_s"] = ratio(float64(ops), total.Seconds())
	v["job_p50_ms"] = quantile(lats, 0.5)
	v["job_p90_ms"] = quantile(lats, 0.9)
	v["alloc_mb"] = median(allocs)
}

func (r *report) result() result {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: r.Values[d.Name], Unit: d.Unit}
	}
	return res
}

func printReport(w io.Writer, r *report) {
	e := r.Env
	fmt.Fprintf(w, "workload %s  seed %d  W %d  GOMAXPROCS %d  nproc %d\n", r.Workload, e.Seed, e.W, e.GOMAXPROCS, e.NProc)
	fmt.Fprintf(w, "%s %s/%s  cpu %q  commit %s\n", e.GoVersion, e.GOOS, e.GOARCH, e.CPU, e.Commit)
	fmt.Fprintf(w, "%d passes, %d operations attempted, %d failed\n", r.Passes, r.Attempted, r.Failed)
	for _, msg := range r.Errors {
		fmt.Fprintln(w, "  failure:", msg)
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		note := ""
		switch d.Name {
		case "setup_s":
			note = fmt.Sprintf("  (median of %d set-ups)", r.Setups)
		case "pass_s", "alloc_mb":
			note = fmt.Sprintf("  (median of %d passes)", r.Passes)
		case "job_p50_ms", "job_p90_ms":
			note = fmt.Sprintf("  (%d jobs)", r.Jobs)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %s%s\n", d.Name, r.Values[d.Name], d.Unit, note)
	}
}
