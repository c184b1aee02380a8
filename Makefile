GO ?= go

# Build identity, stamped into the binary (dualsim -version, GET /stats,
# the dualsim_build_info gauge). Override VERSION for releases.
VERSION ?= dev
COMMIT  ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null)
LDFLAGS := -X dualsim/internal/buildinfo.Version=$(VERSION) \
           -X dualsim/internal/buildinfo.Commit=$(COMMIT)

.PHONY: build test race stress vet fmt lint check bench-module bench scale metrics-doc metrics-doc-check smoke-serve soak clean

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

# lint is every static guard, in one place (CI's test job runs it too): vet,
# gofmt, the in-repo godoc linter (a stdlib stand-in for
# revive's `exported` rule), gated to the packages whose exported surface
# doubles as the paper-concept glossary, and the metrics-doc staleness
# gate (every registered metric must be documented in docs/METRICS.md).
# The serving binary must not link the comparison systems (the MapReduce
# and Pregel simulators and the baselines built on them); those belong to
# cmd/bench. Last, the window index stays flat and lock-free — no mutex and no
# per-vertex hash map in the window loader, the last-level stream (its
# permits and hand-offs travel one channel) or the matcher — the matcher
# resolves lists through each page's slot index (storage.Page.List: a list
# and its forward split in one read of the index), never through a
# storage.Record, and no reader of the page file builds one: each buffer
# frame parses into the decoded page it keeps (storage.ParsePageInto), and so
# do the whole-file scans (verification, stats, LoadGraph) and compaction's
# walk, so non-test internal/core, internal/buffer, internal/server, cmd/ and
# internal/storage/{db,compact}.go name no .Records or Record (FileStats'
# record count, read as st.Records, is not a page's) and internal/buffer
# calls no storage.ParsePage; the hot path
# searches with slices.BinarySearch, not sort.Search's closure per probe,
# candidates are unioned through the scratch set, not sorted, reads have one
# issuer (run.issueRuns holds core's only AsyncReadRunContext call), a cohort
# rider's budgets have one source (cohortBudget.levels holds sweep.go's only
# buffer.Allocate call: boarding calls the deal, it keeps no copy of the
# split), no speculative read path comes back (scripts/inert_names.sh), and
# no second decode path either: a compressed page is decoded as it is parsed,
# and only benchmark/, internal/graph and internal/storage name the
# compressed-domain operand (scripts/one_decode_path.sh). Finally, one retry
# layer: the engine fails a run on any error, and classifying a fault as worth
# another attempt belongs to storage.RetryReader, so non-test internal/core
# calls no IsTransient. And one ledger (scripts/one_ledger.sh): every run has
# an attribution scope, so internal/core tests none for nil, and the pool and
# retry counters are registry counters every engine settles into, so no
# CounterFunc reads them off one engine's pool (nor off one scheduler's sweep
# for the cohort family); what a query owns has one book, its scope: no engine
# counter mirroring a scope field is touched outside internal/core/metrics.go,
# and the pool keeps no atomic counter but evictions. And one engine generation per database file:
# non-test internal/server builds engines at one call site (the generation's
# constructor) and sleeps nowhere, so a compaction swaps a whole generation
# and waits on its requests, never polls engines over one at a time. Last, a
# compaction is one sequential rewrite, never a rebuild: non-test
# internal/storage/compact.go calls neither Build nor StampEpoch and names no
# EdgeSource (one walk of the base file feeds the page writer, and the
# superblock it writes already carries the epoch). And no per-vertex
# directory: the database's one directory is the page-first array, one entry
# a page, which the engine walks with a cursor in step with ascending
# vertices (storage.PageCursor) and resolves lists through each window's own
# table (vertexTable), so non-test internal/core calls no PageOf, SpanOf or
# Degree on its database. And a buffer pool whose state is fixed at creation:
# frames, their table and one clock hand, so non-test internal/buffer/pool.go
# appends to no pool field (nothing grows with the pins it serves), and one
# read arm, storage.PageSource.ReadPagesInto (a page is a run of one), so
# non-test internal/buffer names no ReadPageInto.
lint: vet metrics-doc-check
	@if [ -n "$$(gofmt -l .)" ]; then gofmt -l . >&2; echo "gofmt: the files above are not formatted" >&2; exit 1; fi
	$(GO) run ./cmd/lintdoc ./internal/graph ./internal/core ./internal/buffer ./internal/sharedscan ./internal/storage ./internal/delta
	@if $(GO) list -deps ./cmd/dualsim | grep -E 'internal/(mr|pregel|baseline)'; then \
		echo "cmd/dualsim links a comparison system; move the caller to cmd/bench" >&2; exit 1; fi
	@if grep -nE 'sync\.Mutex|map\[graph\.VertexID\]' internal/core/window.go internal/core/stream.go internal/core/match.go; then \
		echo "the window index is a flat array each page callback writes its own slot of: no mutex, no per-vertex map" >&2; exit 1; fi
	@if grep -nE '\.Records\b|\bRecord\{|storage\.Record\b' internal/storage/db.go internal/storage/compact.go $$(ls internal/core/*.go internal/buffer/*.go internal/server/*.go cmd/*/*.go | grep -v _test.go) | grep -vE '\bst\.Records\b'; then \
		echo "pages are read through their slot index (storage.Page.List, Chunk): no .Records or Record in non-test internal/core, internal/buffer, internal/server, cmd/ or internal/storage/{db,compact}.go (st.Records, FileStats' record count, excepted)" >&2; exit 1; fi
	@if grep -nF 'storage.ParsePage(' $$(ls internal/buffer/*.go | grep -v _test.go); then \
		echo "a frame parses into the decoded page it keeps (storage.ParsePageInto): no storage.ParsePage in non-test internal/buffer" >&2; exit 1; fi
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
	@if grep -nF 'IsTransient(' $$(ls internal/core/*.go | grep -v _test.go); then \
		echo "one retry layer: storage.RetryReader absorbs transient faults, the engine fails a run on any error (no IsTransient in internal/core)" >&2; exit 1; fi
	@./scripts/one_ledger.sh
	@if [ "$$(cat $$(ls internal/server/*.go | grep -v _test.go) | grep -c 'core\.NewEngine(')" != 1 ]; then \
		echo "one engine generation per database file: exactly one core.NewEngine call in non-test internal/server (the generation's constructor)" >&2; exit 1; fi
	@if grep -nF 'time.Sleep(' $$(ls internal/server/*.go | grep -v _test.go); then \
		echo "a compaction waits on the old generation's requests: no time.Sleep in non-test internal/server" >&2; exit 1; fi
	@if grep -nE 'Build\(|StampEpoch\(|EdgeSource' internal/storage/compact.go; then \
		echo "a compaction is one sequential rewrite, never a rebuild: no Build, StampEpoch or EdgeSource in internal/storage/compact.go" >&2; exit 1; fi
	@if grep -nE '\b(PageOf|SpanOf|Degree)\(' $$(ls internal/core/*.go | grep -v _test.go); then \
		echo "no per-vertex directory: internal/core walks the page-first array with a storage.PageCursor and resolves lists through each window's vertexTable (no PageOf, SpanOf or Degree)" >&2; exit 1; fi
	@if grep -nF 'append(p.' internal/buffer/pool.go; then \
		echo "the pool's state is fixed at creation (frames, their table, one clock hand): no append to a pool field in internal/buffer/pool.go" >&2; exit 1; fi
	@if grep -nF 'ReadPageInto' $$(ls internal/buffer/*.go | grep -v _test.go); then \
		echo "one read arm: the pool reads every stretch with storage.PageSource.ReadPagesInto, a page as a run of one (no ReadPageInto in non-test internal/buffer)" >&2; exit 1; fi

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
# the race-enabled test suite (the robustness tests exercise concurrent
# cancellation paths that only -race can vouch for) and the stress pass.
check: lint bench-module race stress

# stress is the -race -count=20 pass, and STRESS_RUN its one test set (CI's
# race job runs this target). The three concurrent oracles lead it. The pool
# oracle's seeds race clients that pin, unpin, read runs and cancel them
# against the I/O workers, a waiter against a cancelled loader, and a Close
# against requests in flight. The serving oracle's
# race seeds put concurrent HTTP clients, a writer, compactions that swap the
# engine generation under running requests (a riding count among them) and
# device faults through one server. The differential oracle: every draw
# builds window indexes that I/O workers write without a lock while matching
# tasks read them (overlay-merged lists included), streams the last level,
# whose pages are matched and unpinned in whatever order reads land and tasks
# end, fills the per-assignment list cache, which must never outlive a
# window's pins, and hands rows to the row hook from every worker at once;
# its rider draws board a shared sweep beside companions, so budgets are
# dealt at every window boundary while riders board and leave, and its
# permanent-fault rider draws fail a cohort while its tasks are matching.
# A pinned rider draw at the engine's frame floor has frames parse page after
# page into the memory they keep while riders pin and unpin around them.
# Beside it ride what the oracle does not draw: the window-index contracts,
# the overlay stream dispatch of a hub, a fault and a cancel inside a
# streamed pass, the deal's tables, late join with early finish, the row
# hook's order against checkpoints, the library's one-caller Enumerate, the
# server's limit cut and flushes, the sublinear-pages pins (concurrent
# riders share a sweep only by late join) and the faulted scheduler.
STRESS_RUN = TestServingOracle|TestDifferentialAllModes|TestPoolOracle|TestFrameReuseRidersAtFloor|TestWindowIndex|TestResidentWindowInternalOnly|TestOverlayStreamDispatch|TestStreamFaultMidPass|TestStreamCancelMidPass|TestDealSplit|TestSweepLateJoinEarlyFinish|TestRowsPrecedeCheckpoint|TestCohortDealExactBudget|TestSchedulerSharedReadsSublinear|TestSchedulerFaults|TestEnumerateContract|TestStreamLimitCutsInsideBatch|TestStreamEmitAllocs|TestStreamCoalescedFlushes|TestE2ESharedScanSublinearPages
stress:
	$(GO) test -race -count=20 -run '$(STRESS_RUN)' ./internal/buffer ./internal/core ./internal/sharedscan ./internal/server .

# bench-module vets and tests benchmark/, which is its own Go module
# (replace dualsim => ../): the root ./... patterns never compile it, so
# without this target a change to internal/core's exported surface could
# break the benchmark the pipeline gates on and still pass check.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench runs every benchmark once — a smoke test that the benchmark harness
# still compiles and executes, not a measurement (use -benchtime 3x and a
# quiet machine for real numbers) — but the scale tier, which `make scale`
# runs.
bench:
	$(GO) test -run '^$$' -bench . -skip 'Scale' -benchtime 1x ./...

# scale runs the scale tier once: q1 and q4 on gen.RMAT(20, 8 000 000)
# built compressed (2^20 vertices, about 7.7 M edges, a few seconds to
# build), one engine each, q1 at a 5 % buffer and q4 at 10 % (under a minute
# a run on two cores), reporting pages and device requests per run, the
# heap that opening the database and its engine keep live, the windows per
# level, and the pages read over Equation 1 and over Silvestri's bound. It is
# in neither tier-1 nor check.
scale:
	$(GO) test -run '^$$' -bench 'Scale' -benchtime 1x -count 1 -timeout 30m .

# smoke-serve exercises the query service end to end: build, serve the
# karate-club database on a free port, query it over HTTP, SIGTERM, and
# require a clean drain (exit 0).
smoke-serve:
	./scripts/serve_smoke.sh

# soak runs the four oracles on fresh seeds under -race for SOAK_SECONDS
# each: the serving oracle draws whole server configurations and concurrent
# HTTP schedules — faults, live ingest, compactions, resumes — and checks
# every reply against brute force at its data epoch (TestServingOracle); the
# differential oracle draws whole execution configurations of the engine
# (TestDifferentialAllModes); the storage oracle draws a graph, a build, a
# base file and a corruption, and holds every reader of the page file to the
# graph (TestStorageOracle); the pool oracle draws a database, a pool, a
# faulted or retried reader and concurrent clients, and holds every answer of
# the buffer pool to the file (TestPoolOracle). Each logs its seed range, and
# failures print the offending seed; reproduce one with
#   go test ./internal/server -run 'TestServingOracle/seed=N$$'
#   go test ./internal/core -run 'TestDifferentialAllModes/seed=N$$'
#   go test ./internal/storage -run 'TestStorageOracle/seed=N$$'
#   go test ./internal/buffer -run 'TestPoolOracle/seed=N$$'
# Tune the time box with SOAK_SECONDS (default 20 here).
SOAK_SECONDS ?= 20
soak:
	SOAK_SECONDS=$(SOAK_SECONDS) $(GO) test -race -count=1 -v \
		-run 'TestServingOracle|TestDifferentialAllModes|TestStorageOracle|TestPoolOracle' \
		./internal/server ./internal/core ./internal/storage ./internal/buffer

clean:
	$(GO) clean ./...
