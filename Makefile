# vcgraph — development targets.

GO ?= go

# Coverage profile location: a scratch path outside the working tree, so
# `make cover` never leaves a cover.out lying around to be committed.
# Override COVERPROFILE to keep the profile somewhere inspectable.
COVERDIR ?= $(shell $(GO) env GOTMPDIR)
ifeq ($(COVERDIR),)
COVERDIR := /tmp
endif
COVERPROFILE ?= $(COVERDIR)/vcgraph-cover.out

.PHONY: all build vet test race cover fuzz-smoke bench-smoke loc bench bench-direction bench-service bench-incremental bench-planner bench-memory bench-checkpoint bench-guard table1 ext figures ablations examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detect the engines and the shared execution runtime. Scoped to
# internal/ (the concurrent code) so the tier-1 gate stays fast; part
# of the verification checklist alongside build/vet/test.
race:
	$(GO) test -race ./internal/...

# Statement coverage over the library packages, with a hard 70% floor.
# Part of the tier-1 gate: a PR that drops total coverage below the
# floor fails here.
cover:
	$(GO) test -count=1 -coverprofile=$(COVERPROFILE) -coverpkg=./internal/... ./...
	@$(GO) tool cover -func=$(COVERPROFILE) | awk '/^total:/ { pct = $$3; sub("%", "", pct); if (pct + 0 < 70) { printf "FAIL: total coverage %s below the 70%% floor\n", $$3; exit 1 } printf "total coverage %s (floor 70%%)\n", $$3 }'

# Ten seconds of coverage-guided fuzzing per generator target. The
# f.Add seed corpora also run on every plain `go test`.
fuzz-smoke:
	$(GO) test -fuzz='FuzzRandom$$' -fuzztime=10s -run='^$$' ./internal/graph
	$(GO) test -fuzz='FuzzPreferentialAttachment$$' -fuzztime=10s -run='^$$' ./internal/graph
	$(GO) test -fuzz='FuzzRandomTree$$' -fuzztime=10s -run='^$$' ./internal/graph
	$(GO) test -fuzz='FuzzCSRBuild$$' -fuzztime=10s -run='^$$' ./internal/graph
	$(GO) test -fuzz='FuzzMutationScript$$' -fuzztime=10s -run='^$$' ./internal/vc
	$(GO) test -fuzz='FuzzVarintBlockCodec$$' -fuzztime=10s -run='^$$' ./internal/graph

# The repository benchmark (BENCHMARK.json, benchmark/) is its own Go
# module, so the root ./... patterns above never compile it. This
# builds it against the library as it stands and runs its tests (the
# manifest contract and the oracle-checked smoke passes).
bench-smoke:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Non-test Go lines under internal/ and cmd/: the number ROADMAP aim 2
# ("the least code") tracks.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l

bench:
	$(GO) test -bench . -benchmem ./...

# Direction-optimizing execution suite: PageRank/Hash-Min/k-core across
# push/pull/auto and worker counts. Raw output lands in /tmp; the
# committed record is BENCH_direction.json, whose headline ratios
# bench-guard enforces.
bench-direction:
	$(GO) test -run='^$$' -bench='^BenchmarkDirection' -benchmem -benchtime=3x -count=1 . | tee /tmp/bench_direction.txt

# Job-layer suite: driver setup cost (a lease on the process pool) and
# serving throughput at admission widths 1/4/16. Raw output lands in
# /tmp; the committed record is BENCH_service.json.
bench-service:
	$(GO) test -run='^$$' -bench='^BenchmarkJobSetup|^BenchmarkServiceJobs' -benchmem -benchtime=3x -count=1 . | tee /tmp/bench_service.txt

# Evolving-graph suite: incremental CC/SSSP/PageRank warm repair after
# seeded mutation batches versus cold recompute on the power-law graph.
# Raw output lands in /tmp; the committed record is
# BENCH_incremental.json, whose SSSP and CC headlines bench-guard
# enforces (PageRank's ~1x is a recorded negative result, no headline).
bench-incremental:
	$(GO) test -run='^$$' -bench='^BenchmarkIncremental' -benchmem -benchtime=3x -count=1 . | tee /tmp/bench_incremental.txt

# Adaptive plan layer suite: the planner-driven "auto" engine against
# fixed engine choices on chain-CC and power-law PageRank. Raw output
# lands in /tmp; the committed record is BENCH_planner.json, whose
# auto-vs-best and auto-vs-worst headlines bench-guard enforces.
bench-planner:
	$(GO) test -run='^$$' -bench='^BenchmarkPlanner' -benchmem -benchtime=3x -count=1 . | tee /tmp/bench_planner.txt

# Memory-lean substrate suite: resident edge bytes (EdgeBytes reported
# as B/op) and traversal cost of the varint-delta packed CSR vs the flat
# int32 one on the R-MAT power-law graph. Raw output lands in /tmp; the
# committed record is BENCH_memory.json, whose edges-per-GB and
# packed-tax headlines bench-guard enforces.
bench-memory:
	$(GO) test -run='^$$' -bench='^BenchmarkMemory' -benchmem -benchtime=3x -count=1 . | tee /tmp/bench_memory.txt

# Checkpoint compaction suite: total checkpoint bytes at
# checkpoint-every-superstep cadence, full snapshots versus dirty-set
# delta chains, on the sparse-frontier SSSP and straggler-CC tails. Raw
# output lands in /tmp; the committed record is BENCH_checkpoint.json,
# whose >=5x bytes headlines bench-guard enforces.
bench-checkpoint:
	$(GO) test -run='^$$' -bench='^BenchmarkCheckpoint(SSSP|CC)' -benchmem -benchtime=3x -count=1 . | tee /tmp/bench_checkpoint.txt

# Re-measure every headline ratio declared in BENCH_*.json and fail if
# any regressed beyond its tolerance/floor. Runs in CI after tier-1.
bench-guard:
	$(GO) run ./cmd/benchguard

table1:
	$(GO) run ./cmd/table1 -details

ext:
	$(GO) run ./cmd/table1 -ext

figures:
	$(GO) run ./cmd/figures

ablations:
	$(GO) run ./cmd/ablations

examples:
	@for ex in quickstart socialnetwork patternmatch roadnetwork treepipeline faulttolerance paradigms linkprediction; do \
		echo "=== examples/$$ex ==="; \
		$(GO) run ./examples/$$ex; \
	done

clean:
	$(GO) clean ./...
	rm -f cover.out $(COVERPROFILE)
