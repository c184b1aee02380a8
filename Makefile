GO ?= go

# Build identity, stamped into the binary (dualsim -version, GET /stats,
# the dualsim_build_info gauge). Override VERSION for releases.
VERSION ?= dev
COMMIT  ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null)
LDFLAGS := -X dualsim/internal/buildinfo.Version=$(VERSION) \
           -X dualsim/internal/buildinfo.Commit=$(COMMIT)

.PHONY: build test race vet fmt lint check bench-module bench metrics-doc metrics-doc-check smoke-serve soak clean

build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# lint runs vet plus the in-repo godoc linter (a stdlib stand-in for
# revive's `exported` rule), gated to the packages whose exported surface
# doubles as the paper-concept glossary, and the metrics-doc staleness
# gate (every registered metric must be documented in docs/METRICS.md).
# The serving binary must not link the comparison systems (the MapReduce
# and Pregel simulators and the baselines built on them); those belong to
# cmd/bench. Last, the window index stays flat and lock-free — no mutex and no
# per-vertex hash map in the window loader, the last-level stream (its
# permits and hand-offs travel one channel) or the matcher — the hot path
# searches with slices.BinarySearch, not sort.Search's closure per probe,
# candidates are unioned through the scratch set, not sorted, reads have one
# issuer (run.issueRuns holds core's only AsyncReadRunContext call), a cohort
# rider's budgets have one source (cohortBudget.levels holds sweep.go's only
# buffer.Allocate call: boarding calls the deal, it keeps no copy of the
# split), no speculative read path comes back (scripts/inert_names.sh), and
# no second decode path either: a compressed page is decoded as it is parsed,
# and only benchmark/, internal/graph and internal/storage name the
# compressed-domain operand (scripts/one_decode_path.sh).
lint: vet metrics-doc-check
	$(GO) run ./cmd/lintdoc ./internal/graph ./internal/core ./internal/buffer ./internal/sharedscan ./internal/storage ./internal/delta
	@if $(GO) list -deps ./cmd/dualsim | grep -E 'internal/(mr|pregel|baseline)'; then \
		echo "cmd/dualsim links a comparison system; move the caller to cmd/bench" >&2; exit 1; fi
	@if grep -nE 'sync\.Mutex|map\[graph\.VertexID\]' internal/core/window.go internal/core/stream.go internal/core/match.go; then \
		echo "the window index is a flat array each page callback writes its own slot of: no mutex, no per-vertex map" >&2; exit 1; fi
	@if grep -nF 'sort.Search(' internal/core/window.go internal/core/stream.go internal/core/match.go; then \
		echo "the window loader and the matcher search with slices.BinarySearch: no closure per probe" >&2; exit 1; fi
	@if grep -nF 'slices.Sort' internal/core/window.go; then \
		echo "candidate sequences are unioned through the run's scratch set (vertexSet): nothing to sort" >&2; exit 1; fi
	@if [ "$$(cat $$(ls internal/core/*.go | grep -v _test.go) | grep -c 'AsyncReadRunContext(')" != 1 ]; then \
		echo "run.issueRuns is the one issuer of reads: exactly one AsyncReadRunContext call in internal/core" >&2; exit 1; fi
	@if [ "$$(grep -c 'buffer\.Allocate(' internal/core/sweep.go)" != 1 ]; then \
		echo "rider budgets have one source: exactly one buffer.Allocate call in internal/core/sweep.go (cohortBudget.levels)" >&2; exit 1; fi
	@./scripts/inert_names.sh
	@./scripts/one_decode_path.sh

# metrics-doc regenerates docs/METRICS.md from the live metric registry
# (every counter/gauge/histogram the server registers, plus the paper
# mapping). Commit the result whenever metrics change.
metrics-doc:
	$(GO) run ./cmd/metricsdoc -write

# metrics-doc-check fails when a registered metric is missing from (or
# stale in) docs/METRICS.md.
metrics-doc-check:
	$(GO) run ./cmd/metricsdoc -check

# check is the full pre-commit gate: static analysis, the benchmark module,
# plus the race-enabled test suite (the robustness tests exercise concurrent
# cancellation paths that only -race can vouch for) and a stress pass over
# the window index, which I/O workers build without a lock while matching
# tasks already read it — overlay-merged lists included: each page's callback
# merges and queues its own page — the streamed last level, whose pages are
# matched and unpinned in whatever order reads land and tasks end, and the
# per-assignment list cache, which is per task and must never outlive a
# window's pins — and the cohort deal: budgets rewritten at every window
# boundary while riders board and leave, in a pool of exactly the frames
# dealt — and the delivery of embeddings: task-local batches handed to the
# row hook from every worker at once, each row once (a retried pass
# included), a window's rows before its checkpoint, the server's cut at the
# row limit inside a batch, the library's one-caller-at-a-time contract —
# and cohort boarding: a fresh sweep starts at once, so concurrent arrivals
# share its reads only by late join, which the sublinear-pages tests pin.
check: lint bench-module
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'ResidentWindow|WindowIndex|WindowScheduleGolden|ResidentAllocation|OrderBounds|OverlayStreamDispatch|TestStream|TestDealSplit|TestCohortDealExactBudget|TestSweepLateJoinEarlyFinish|TestRowsPrecedeCheckpoint|TestStreamLimitCutsInsideBatch|TestStreamEmitAllocs|TestEnumerateContract|TestSchedulerSharedReadsSublinear|TestE2ESharedScanSublinearPages' ./internal/core ./internal/sharedscan ./internal/server .

# bench-module vets and tests benchmark/, which is its own Go module
# (replace dualsim => ../): the root ./... patterns never compile it, so
# without this target a change to internal/core's exported surface could
# break the benchmark the pipeline gates on and still pass check.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench runs every benchmark once — a smoke test that the benchmark harness
# still compiles and executes, not a measurement (use -benchtime 3x and a
# quiet machine for real numbers).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# smoke-serve exercises the query service end to end: build, serve the
# karate-club database on a free port, query it over HTTP, SIGTERM, and
# require a clean drain (exit 0).
smoke-serve:
	./scripts/serve_smoke.sh

# soak runs the seeded chaos matrix and time-boxed chaos soaks under -race:
# mid-query transient faults, bursts, torn reads, and latency spikes are
# injected through the server's end-to-end path, and every faulted +
# resumed query must produce exactly the fault-free counts. The ingest soak
# adds concurrent mutators + compactions and requires the settled counts to
# match a from-scratch rebuild. Failures print the offending seed;
# reproduce one with
#   go test -race -run TestChaosSoak ./internal/server -v   (same seed base)
# Tune the time box with SOAK_SECONDS (default 20 here).
SOAK_SECONDS ?= 20
soak:
	SOAK_SECONDS=$(SOAK_SECONDS) $(GO) test -race -count=1 -v \
		-run 'TestChaosMatrixFaultedResumeExactCounts|TestChaosSoak|TestChaosIngestSoak' \
		./internal/server

clean:
	$(GO) clean ./...
