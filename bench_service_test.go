// Job-layer benchmarks: the per-run setup cost of a driver leasing from
// the process pool (BenchmarkJobSetup), and the serving layer's
// throughput at increasing admission widths (BenchmarkServiceJobs).
// BENCH_service.json records the committed numbers.
package vcgraph

import (
	"fmt"
	"testing"

	"vcgraph/internal/bsp"
	"vcgraph/internal/runtime"
	"vcgraph/internal/service"
)

// benchPolicy is a minimal driver policy: a fixed number of supersteps
// each dispatching one no-op phase, so the measurement isolates run
// setup (the lease) plus barrier overhead.
type benchPolicy struct {
	d     *runtime.Driver[int]
	steps int
	limit int
}

func (p *benchPolicy) Quiescent(step, pending int) bool { return p.steps >= p.limit }
func (p *benchPolicy) Superstep(step int, ss *bsp.SuperstepStats) (int, error) {
	p.d.Lease().Run(func(w int) {})
	ss.Work[0]++
	p.steps++
	return 1, nil
}
func (p *benchPolicy) Snapshot() int                       { return p.steps }
func (p *benchPolicy) Restore(snap int, step int, ok bool) { p.steps = snap }

// BenchmarkJobSetup measures what a short job pays before its first
// superstep: a lease on the long-lived process pool, no goroutine churn
// per run.
func BenchmarkJobSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats := &bsp.Stats{Workers: 4}
		p := &benchPolicy{limit: 4}
		d := runtime.NewDriver[int](p, stats, runtime.DriverConfig{
			Name: "bench", Workers: 4, MaxSteps: 100,
		})
		p.d = d
		if _, err := d.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceJobs measures end-to-end serving throughput: each
// iteration submits a batch of PageRank jobs against one registered
// graph and waits for all of them, at admission widths 1, 4, and 16.
// jobs/sec = batch / (ns_op / 1e9).
func BenchmarkServiceJobs(b *testing.B) {
	for _, width := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("jobs_%d", width), func(b *testing.B) {
			srv := service.New(4, width)
			defer srv.Close()
			if err := srv.RegisterGraph(service.GraphSpec{
				Name: "bench", Gen: "connected", N: 2000, M: 6000, Seed: 3,
			}); err != nil {
				b.Fatal(err)
			}
			spec := service.JobSpec{
				Graph: "bench", Algo: "pagerank", Engine: "pregel", Workers: 2, K: 5,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jobs := make([]*runtime.Job, width)
				for j := range jobs {
					job, err := srv.Submit(spec)
					if err != nil {
						b.Fatal(err)
					}
					jobs[j] = job
				}
				for _, job := range jobs {
					if err := job.Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(width), "jobs/batch")
		})
	}
}
