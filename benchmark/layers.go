package main

import "time"

// layerView is one pass as the per-layer metrics see it: the counters it
// recorded plus the self time and call count of its spans by name.
type layerView struct {
	c     map[string]float64
	runs  map[runKey]float64
	self  map[string]time.Duration
	calls map[string]int
}

func (b *bench) view(p *passStats) layerView {
	self, calls := b.tr.selfTimes(p.spanLo, p.spanHi)
	return layerView{c: p.c, runs: p.runs, self: self, calls: calls}
}

// engineRunSpans are the spans around the engines' run closures; "auto"
// jobs run under the vc layer.
var engineRunSpans = []string{"pregel.run", "gas.run", "async.run", "blockcentric.run", "vc.run"}

func (v layerView) engineRun() float64 {
	var s float64
	for _, name := range engineRunSpans {
		s += v.self[name].Seconds()
	}
	return s
}

// autoVsBestFixed is the mean, over the (graph, algorithm) pairs the pass
// ran both on "auto" and on fixed engines, of auto's run time over the
// fastest fixed engine's.
func (v layerView) autoVsBestFixed() float64 {
	type pair struct{ graph, algo string }
	auto, best := map[pair]float64{}, map[pair]float64{}
	for k, t := range v.runs {
		on := pair{k.graph, k.algo}
		if k.engine == "auto" {
			auto[on] = t
		} else if cur, ok := best[on]; !ok || t < cur {
			best[on] = t
		}
	}
	var sum float64
	n := 0
	for on, t := range auto {
		if best[on] > 0 {
			sum += t / best[on]
			n++
		}
	}
	return ratio(sum, float64(n))
}

// perLayerValues fills in the metrics of a traced run. Times are span
// self time summed per pass, as the median over the traced passes;
// counts are those of the first traced pass, which a seed fixes. Where
// the passes cannot see a quantity (serve-mixed sees engines only
// through HTTP) the replay in attr supplies it.
func perLayerValues(rep *report, b *bench, setupLo, setupHi int, plain, traced []*passStats, attr *passStats) {
	v := rep.Values
	views := make([]layerView, len(traced))
	for i, p := range traced {
		views[i] = b.view(p)
	}
	first, av := views[0], b.view(attr)
	// engineViews are the passes whose spans show the engines at work.
	engineViews := views
	if first.engineRun() == 0 {
		engineViews = []layerView{av}
	}
	over := func(vs []layerView, f func(layerView) float64) float64 {
		xs := make([]float64, len(vs))
		for i, lv := range vs {
			xs[i] = f(lv)
		}
		return median(xs)
	}
	spanSum := func(vs []layerView, name string) float64 {
		return over(vs, func(lv layerView) float64 { return lv.self[name].Seconds() })
	}
	spanMeanMS := func(name string) float64 {
		var total time.Duration
		calls := 0
		for _, lv := range views {
			total += lv.self[name]
			calls += lv.calls[name]
		}
		return ratio(total.Seconds()*1e3, float64(calls))
	}
	// count prefers the first traced pass and falls back to the replay.
	count := func(name string) float64 {
		if x := first.c[name]; x != 0 {
			return x
		}
		return av.c[name]
	}

	setupSelf, _ := b.tr.selfTimes(setupLo, setupHi)
	v["graph.generate_s"] = setupSelf["graph.generate"].Seconds()
	for _, stage := range []string{"parse", "csr_build", "pack", "vcsr_write", "vcsr_open"} {
		v["graph."+stage+"_s"] = spanSum(views, "graph."+stage)
	}
	v["graph.edge_bytes_flat"] = first.c["graph.edge_bytes_flat"]
	v["graph.edge_bytes_packed"] = first.c["graph.edge_bytes_packed"]
	v["graph.mutate_ms"] = spanMeanMS("graph.mutate")

	v["runtime.supersteps"] = count("runtime.supersteps")
	v["runtime.superstep_us"] = over(engineViews, func(lv layerView) float64 {
		return ratio(lv.engineRun()*1e6, lv.c["runtime.supersteps"])
	})
	v["runtime.partition_s"] = av.self["runtime.partition"].Seconds()
	v["runtime.admit_wait_ms"] = over(views, func(lv layerView) float64 {
		return ratio(lv.c["runtime.admit_wait_s"]*1e3, lv.c["runtime.jobs"])
	})
	for _, name := range []string{"delta_checkpoints", "checkpoint_bytes_full", "checkpoint_bytes_delta", "rollbacks", "redone_supersteps"} {
		v["runtime."+name] = count("runtime." + name)
	}
	v["runtime.imbalance"] = ratio(count("runtime.max_work"), count("runtime.mean_work"))

	for _, e := range engineLayers {
		v[e+".prepare_s"] = spanSum(engineViews, e+".prepare")
		v[e+".run_s"] = spanSum(engineViews, e+".run")
		for _, name := range []string{"messages", "work", "pulled_supersteps", "model_cost"} {
			v[e+"."+name] = count(e + "." + name)
		}
		// Mallocs are only seen where the benchmark brackets the run
		// itself, so both halves of the ratio come from that source.
		v[e+".allocs_per_superstep"] = ratio(engineViews[0].c[e+".mallocs"], engineViews[0].c[e+".supersteps"])
	}

	v["vc.auto_run_s"] = spanSum(engineViews, "vc.run")
	v["vc.auto_switches"] = count("vc.auto_switches")
	v["vc.auto_vs_best_fixed"] = over(engineViews, layerView.autoVsBestFixed)
	v["vc.packed_tax"] = ratio(av.runs[runKey{"packed", "pagerank", "pregel-pull"}], av.runs[runKey{"flat", "pagerank", "pregel-pull"}])
	v["vc.inc_warm_ms"] = over(views, func(lv layerView) float64 {
		return ratio(lv.c["vc.inc_warm_s"]*1e3, lv.c["vc.inc_warm_jobs"])
	})
	v["vc.inc_cold_share"] = ratio(first.c["vc.inc_cold_jobs"], first.c["vc.inc_jobs"])
	v["vc.inc_work_ratio"] = ratio(first.c["vc.inc_verified_work"], first.c["vc.async_verifier_work"])

	v["plan.sample_s"] = av.self["plan.sample"].Seconds()
	v["plan.decisions"] = count("plan.decisions")

	v["service.submit_ms"] = spanMeanMS("service.submit")
	v["service.status_ms"] = spanMeanMS("service.status")
	v["service.query_ms"] = spanMeanMS("service.query")
	v["service.polls_per_job"] = ratio(first.c["service.polls"], first.c["service.jobs"])
	v["service.http_errors"] = first.c["service.http_errors"]

	// Each traced pass is paired with the untraced pass just before it,
	// so that slow drift of the machine cancels within a pair.
	pairs := make([]float64, len(traced))
	for i, p := range traced {
		pairs[i] = ratio(p.wall.Seconds(), plain[i].wall.Seconds())
	}
	q1, med, _ := quartiles(sorted(pairs))
	v["trace.overhead_share"] = med - 1
	rep.overheadQ1 = q1 - 1
}
