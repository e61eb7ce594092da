// Command vcd is the vertex-centric serving daemon: a JSON/HTTP front
// end over the library's job-scoped runtime. It registers named
// graphs, admits concurrent jobs (PageRank, SSSP, connected
// components, k-core on any of the four engines — or engine "auto",
// which lets the adaptive plan layer pick and switch engines at
// superstep barriers mid-run) through one shared
// worker pool, streams per-superstep statistics from live runs, and
// answers point queries against finished results. See
// internal/service for the API and DESIGN.md for the concurrency
// contract.
//
// Usage:
//
//	vcd [-addr :8080] [-workers 0] [-max-jobs 4] [-job-retention 512] [-graph-ttl 0]
//	    [-checkpoint-every 0] [-full-snapshot-every 0]
//
// workers = 0 sizes the shared pool to GOMAXPROCS; max-jobs bounds the
// jobs running concurrently (the rest queue FIFO). job-retention caps
// retained terminal job records; graph-ttl, when positive, evicts
// graphs idle longer than the given duration (graphs with pinned
// snapshots are never evicted). A background sweeper enforces both.
// checkpoint-every and full-snapshot-every set server-wide checkpoint
// cadence defaults for jobs that leave the corresponding spec fields
// unset; full-snapshot-every > 1 stores the checkpoints between full
// snapshots as dirty-set deltas (see internal/runtime.Checkpoints).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vcgraph/internal/plan"
	"vcgraph/internal/service"
)

// The HTTP server's limits. A request's headers must arrive within
// readHeaderTimeout and its body (at most 64 MiB) within readTimeout;
// writeTimeout bounds a response, idleTimeout a kept-alive connection
// with no request. On SIGINT or SIGTERM the daemon stops accepting
// connections and gives those in flight shutdownGrace to finish.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 10 * time.Second
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "shared pool width (0 = GOMAXPROCS)")
	maxJobs := flag.Int("max-jobs", 4, "maximum concurrently running jobs")
	retention := flag.Int("job-retention", service.DefaultJobRetention,
		"terminal job records to retain before oldest-first eviction")
	graphTTL := flag.Duration("graph-ttl", 0,
		"evict graphs idle longer than this (0 = keep forever; pinned graphs are never evicted)")
	sweep := flag.Duration("sweep", time.Minute, "registry eviction sweep interval")
	ckEvery := flag.Int("checkpoint-every", 0,
		"default checkpoint cadence (supersteps/epochs) for jobs that do not set checkpoint_every (0 = off)")
	fullEvery := flag.Int("full-snapshot-every", 0,
		"default full-snapshot cadence for jobs that do not set full_snapshot_every; >1 stores the checkpoints between as dirty-set deltas")
	flag.Parse()

	srv := service.NewServer(service.Options{
		Workers:                  *workers,
		MaxJobs:                  *maxJobs,
		JobRetention:             *retention,
		GraphTTL:                 *graphTTL,
		DefaultCheckpointEvery:   *ckEvery,
		DefaultFullSnapshotEvery: *fullEvery,
		PlanTrace: func(jobID int64, d plan.Decision) {
			fmt.Printf("vcd: job %d plan: step=%d engine=%s partition=%s mode=%s (%s)\n",
				jobID, d.Step, d.Plan.Engine, d.Plan.Partition, d.Plan.Mode, d.Reason)
		},
	})
	go func() {
		for range time.Tick(*sweep) {
			if n := srv.EvictJobs(); n > 0 {
				fmt.Printf("vcd: evicted %d terminal job records\n", n)
			}
			if names := srv.EvictGraphs(); len(names) > 0 {
				fmt.Printf("vcd: evicted idle graphs %v\n", names)
			}
		}
	}()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vcd:", err)
		os.Exit(1)
	}
	fmt.Printf("vcd: listening on %s (max %d concurrent jobs)\n", ln.Addr(), *maxJobs)
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	stopped := make(chan error, 1)
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		fmt.Printf("vcd: %v, shutting down\n", <-sig)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		stopped <- hs.Shutdown(ctx)
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "vcd:", err)
		os.Exit(1)
	}
	if err := <-stopped; err != nil {
		fmt.Fprintln(os.Stderr, "vcd:", err)
		os.Exit(1)
	}
}
