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

.PHONY: all build vet test race cover fuzz-smoke bench-smoke loc bench table1 ext figures ablations examples clean

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

# Ten seconds of coverage-guided fuzzing per target: the generators,
# CSR build, the mutation script, the varint codec (and its block decoder
# against its reference), the SNAP parser (alone and against its
# reference) and the pregel mailbox.
# The f.Add seed corpora also run on every plain `go test`.
fuzz-smoke:
	$(GO) test -fuzz='FuzzRandom$$' -fuzztime=10s -run='^$$' ./internal/graph
	$(GO) test -fuzz='FuzzPreferentialAttachment$$' -fuzztime=10s -run='^$$' ./internal/graph
	$(GO) test -fuzz='FuzzRandomTree$$' -fuzztime=10s -run='^$$' ./internal/graph
	$(GO) test -fuzz='FuzzCSRBuild$$' -fuzztime=10s -run='^$$' ./internal/graph
	$(GO) test -fuzz='FuzzMutationScript$$' -fuzztime=10s -run='^$$' ./internal/vc
	$(GO) test -fuzz='FuzzVarintBlockCodec$$' -fuzztime=10s -run='^$$' ./internal/graph
	$(GO) test -fuzz='FuzzDecodeEdgeBlockMatchesReference$$' -fuzztime=10s -run='^$$' ./internal/graph
	$(GO) test -fuzz='FuzzReadSNAP$$' -fuzztime=10s -run='^$$' ./internal/graph
	$(GO) test -fuzz='FuzzReadSNAPMatchesReference$$' -fuzztime=10s -run='^$$' ./internal/graph
	$(GO) test -fuzz='FuzzMailbox$$' -fuzztime=10s -run='^$$' ./internal/runtime

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

# The runtime microbenchmarks (internal/runtime/bench_test.go), run by
# hand. Measured performance is BENCHMARK.json + benchmark/, and the
# deterministic headlines are ordinary test assertions.
bench:
	$(GO) test -run='^$$' -bench . -benchmem ./internal/...

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
