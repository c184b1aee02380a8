// Package core implements the DUALSIM execution engine (Section 5 of the
// paper): level-by-level traversal of the data graph over merged candidate
// vertex/page windows, overlapped internal and external subgraph
// enumeration, asynchronous I/O with callback processing, and non-red
// (black/ivory) vertex matching from in-buffer adjacency lists.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"dualsim/internal/buffer"
	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/plan"
	"dualsim/internal/storage"
)

// Options configures an Engine.
type Options struct {
	// Threads is the number of enumeration workers (default GOMAXPROCS).
	Threads int
	// BufferFrames fixes the buffer pool capacity in pages. When zero,
	// BufferFraction applies.
	BufferFrames int
	// BufferFraction sizes the buffer as a fraction of the database's page
	// count (default 0.15, the paper's default buffer budget).
	BufferFraction float64
	// EqualAllocation divides the buffer equally among levels instead of
	// the paper's allocation: the OPT comparator (internal/baseline/opt)
	// and Figure 17 run with it.
	EqualAllocation bool
	// IOWorkers is the number of asynchronous I/O goroutines (default 4).
	IOWorkers int
	// PrefetchFrames has no effect; ROADMAP item 10(2) removes it.
	PrefetchFrames int
	// PerPageLatency simulates per-page device transfer latency.
	PerPageLatency time.Duration
	// SeekLatency simulates device positioning latency, charged once per
	// read request regardless of its page count.
	SeekLatency time.Duration
	// Retry, when non-nil, wraps the page read path in a
	// storage.RetryReader with this policy, absorbing transient device
	// faults and torn reads before they reach the engine. It is the
	// engine's only recovery: a read error that outlives it fails the run.
	Retry *storage.RetryPolicy
	// Metrics, when non-nil, is the registry the engine registers its
	// metrics into: every engine on one registry counts into the same
	// counters, the pool's and the retry layer's included. When nil the
	// engine creates a private registry, retrievable with Registry().
	Metrics *obs.Registry
	// Tracer, when non-nil, receives window/stage lifecycle events (and
	// retry-layer recovery events when Retry is set). Nil disables tracing
	// at the cost of one pointer comparison per emit site.
	Tracer obs.Tracer
	// ProgressInterval, when positive, prints a progress line (windows
	// done/estimated, pages read, embeddings) to ProgressWriter every
	// interval during a run.
	ProgressInterval time.Duration
	// ProgressWriter receives progress lines (required for
	// ProgressInterval; typically os.Stderr).
	ProgressWriter io.Writer
}

// Result reports one enumeration run.
type Result struct {
	// Count is the number of embeddings found (each occurrence once).
	Count uint64
	// Internal counts embeddings whose red match lay entirely inside the
	// window's internal area (in-window enumeration).
	Internal uint64
	// External counts embeddings found by the external traversal, i.e.
	// red matches spanning the window boundary.
	External uint64
	// Plan is the preparation output.
	Plan *plan.Plan
	// PrepTime is the preparation phase duration (matching order, RBI
	// transform, window planning).
	PrepTime time.Duration
	// ExecTime is the enumeration phase duration.
	ExecTime time.Duration
	// Level1Windows counts iterations of the outermost (internal area)
	// window loop.
	Level1Windows int
	// WindowsPerLevel counts window iterations at every level (index 0 =
	// level 1). Middle levels multiply, so these explain the I/O curve. The
	// last level is not chopped into windows: its entry counts streamed
	// passes, one per window of the level above it (a resumed run counts
	// those of the windows it still had to do). All zero below level 1 when
	// the one level-1 window spans the whole vertex range.
	WindowsPerLevel []int
	// BufferFrames is the pool capacity used.
	BufferFrames int
	// Resumed reports that the run replayed from a Checkpoint; Count then
	// includes the checkpoint's settled totals.
	Resumed bool
	// Metrics is a snapshot of the engine's metric registry at the end of
	// the run. Counters are cumulative across runs of one engine.
	Metrics *obs.Snapshot
	// Profile is this run's attributed cost profile — the per-query slice
	// of the global counters plus the time breakdown, read from the run's
	// scope (RunSpec.Scope, or one the run minted). Never nil. Its pages and
	// pins are the buffer activity the run caused: a cohort rider's reads
	// are its sweep's, so its PagesRead is zero. IOWaitNS is orchestrator
	// time blocked on page loads — the I/O cost not hidden behind
	// enumeration work (the paper's overlap target); inside a last-level
	// pass that is time blocked while a read is outstanding.
	Profile *obs.CostProfile
}

// Database is the storage interface the engine consumes. *storage.DB
// implements it; tests wrap it to inject I/O failures. Its one directory is
// the page-first array: the engine walks it with cursors in step with
// ascending vertices and resolves lists through each window's own table,
// never with a per-vertex lookup.
type Database interface {
	buffer.PageReader
	NumVertices() int
	NumEdges() uint64
	PageFirsts() storage.PageFirsts
}

// ErrEngineBusy reports an overlapping Run/RunContext on one Engine. The
// buffer budget and path-pin accounting are planned per run, so concurrent
// runs on a single engine would corrupt pool state; the guard makes the
// misuse a defined, typed error instead. Use one engine per concurrent run
// (see internal/server's engine pool).
var ErrEngineBusy = errors.New("core: engine already has a run in flight (one Run at a time per Engine)")

// Engine runs subgraph enumeration queries against one database.
type Engine struct {
	db      Database
	pool    *buffer.Pool
	retry   *storage.RetryReader // non-nil when Options.Retry is set
	opts    Options
	frames  int
	pages   storage.PageFirsts // the database's page-first array (shared, read-only)
	maxSpan int                // pages of the largest adjacency list

	running atomic.Bool // guards against overlapping runs
	// matchersMade counts the matchers the engine's runs allocated.
	matchersMade atomic.Uint64

	reg    *obs.Registry
	em     *engineMetrics
	tracer obs.Tracer // nil when tracing is disabled
}

// NewEngine opens an engine over db. Close the engine (not the db) when
// done.
func NewEngine(db Database, opts Options) (*Engine, error) {
	if opts.Threads <= 0 {
		opts.Threads = runtime.GOMAXPROCS(0)
	}
	if opts.BufferFraction == 0 {
		opts.BufferFraction = 0.15
	}
	frames := opts.BufferFrames
	if frames <= 0 {
		frames = int(float64(db.NumPages()) * opts.BufferFraction)
	}
	// Floor: enough frames for the deepest supported plan plus async slack.
	frames = max(frames, 2*opts.Threads+8)
	// The retry layer wraps only the page read path handed to the pool; the
	// page-first array is in memory and needs none.
	var reader buffer.PageReader = db
	var retry *storage.RetryReader
	if opts.Retry != nil {
		rp := *opts.Retry
		if opts.Tracer != nil && rp.OnEvent == nil {
			// Surface recovery activity in the trace: I/O workers emit
			// these concurrently with the orchestrator's window events.
			tr := opts.Tracer
			rp.OnEvent = func(kind string, pid storage.PageID, attempt int) {
				tr.Emit(obs.Event{Event: "retry_" + kind, Page: int64(pid), Attempt: attempt})
			}
		}
		retry = storage.NewRetryReader(db, rp)
		reader = retry
	}
	pool, err := buffer.NewPool(reader, buffer.Options{
		Frames:         frames,
		IOWorkers:      opts.IOWorkers,
		PerPageLatency: opts.PerPageLatency,
		SeekLatency:    opts.SeekLatency,
	})
	if err != nil {
		return nil, err
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Engine{
		db: db, pool: pool, retry: retry, opts: opts, frames: frames,
		pages: db.PageFirsts(), maxSpan: db.PageFirsts().MaxSpan(),
		reg: reg, em: registerEngineMetrics(reg), tracer: opts.Tracer,
	}, nil
}

// Registry returns the engine's metric registry (Options.Metrics, or the
// private registry created when that was nil). Serve it with obs.Serve or
// snapshot it with Registry().Snapshot().
func (e *Engine) Registry() *obs.Registry { return e.reg }

// RetryStats returns the retry layer's recovery counters; the zero value
// when Options.Retry was not set.
func (e *Engine) RetryStats() storage.RetryStats {
	if e.retry == nil {
		return storage.RetryStats{}
	}
	return e.retry.Stats()
}

// Close releases the engine's buffer pool and flushes the tracer (if the
// configured Tracer buffers, e.g. obs.JSONLTracer), so the final spans of
// the engine's last run reach their sink.
func (e *Engine) Close() {
	e.pool.Close()
	if f, ok := e.tracer.(obs.Flusher); ok {
		_ = f.Flush()
	}
}

// BufferFrames returns the pool capacity in pages.
func (e *Engine) BufferFrames() int { return e.frames }

// PinnedFrames returns the number of buffer frames currently pinned. Zero
// between runs; a non-zero value after a run returned indicates a pin leak,
// which the serving layer treats as grounds to recycle the engine.
func (e *Engine) PinnedFrames() int { return e.pool.PinnedCount() }

// Run enumerates all occurrences of q and returns statistics. Safe to call
// repeatedly; an overlapping Run on the same Engine returns ErrEngineBusy
// (the buffer budget is planned per run).
func (e *Engine) Run(q *graph.Query) (*Result, error) {
	return e.RunContext(context.Background(), q)
}

// RunContext is Run observing ctx: cancellation (or ctx's deadline) stops
// the traversal at the next window or queued read, releases every pin, and
// returns ctx.Err(). A run abandoned this way leaves the engine reusable.
func (e *Engine) RunContext(ctx context.Context, q *graph.Query) (*Result, error) {
	p, err := plan.Prepare(q, plan.Options{})
	if err != nil {
		return nil, err
	}
	return e.RunPlanContext(ctx, p)
}

// RunPlanContext executes a prepared plan, observing ctx.
func (e *Engine) RunPlanContext(ctx context.Context, p *plan.Plan) (*Result, error) {
	return e.RunSpecContext(ctx, RunSpec{Plan: p})
}

// RunSpecContext executes spec (see RunSpec) as a sweep of one: the run
// builds a private Sweep over its own level-1 budget, starting at the
// resume cursor, and rides it alone — Load, ProcessWindow, Release per
// window. The plan may be shared: execution never mutates it, so one
// cached *Plan can serve concurrent runs on different engines.
func (e *Engine) RunSpecContext(ctx context.Context, spec RunSpec) (*Result, error) {
	p := spec.Plan
	if p == nil {
		return nil, fmt.Errorf("core: RunSpec without a plan")
	}
	cursor := 0
	if spec.Resume != nil {
		if err := e.validateResume(spec.Resume, p); err != nil {
			return nil, err
		}
		cursor = spec.Resume.Cursor
	}
	if !e.running.CompareAndSwap(false, true) {
		return nil, ErrEngineBusy
	}
	defer e.running.Store(false)
	// The solo budget policy: the whole pool split over the plan's levels
	// by the paper's allocation — level 1 (the sweep of one) gets alloc[0],
	// the rider the rest. When the graph fits beside one maximal vertex per
	// deeper level, level 1 takes exactly the graph (one window spanning
	// every vertex, enumerated as internal only) and the span floors are
	// settled among the deeper levels alone.
	var alloc []int
	var err error
	resident := 0
	if e.opts.EqualAllocation {
		alloc, err = buffer.AllocateEqual(e.frames, p.K)
	} else {
		if pages := e.db.NumPages(); e.frames-pages >= (p.K-1)*e.maxSpan {
			resident = pages
		}
		alloc, err = buffer.Allocate(e.frames, p.K, e.opts.Threads, resident)
	}
	if err != nil {
		return nil, fmt.Errorf("core: allocating %d frames over %d levels: %w", e.frames, p.K, err)
	}
	deep := alloc
	if resident > 0 {
		deep = alloc[1:]
	}
	if err := ensureSpanBudget(deep, e.frames-resident, e.maxSpan); err != nil {
		return nil, err
	}
	r := e.newRun(ctx, spec, alloc)
	// Attribution rides on the sweep: its run's scope is installed on the
	// buffer pool until the sweep closes — the engine owns the pool and runs
	// one query at a time, and all reads settle before the run returns, so
	// attributed pages partition the global count exactly.
	s, err := e.newSweep(r, cursor)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	rd := (&Rider{s: s, r: r, frames: e.frames}).board()
	defer rd.Close()

	if e.opts.ProgressInterval > 0 && e.opts.ProgressWriter != nil {
		// The reporter goroutine reads only atomics: the run's scope and its
		// embedding counts. Level-1 window count is estimated from the
		// level's frame budget; path-pin sharing makes actual windows
		// somewhat fewer.
		estL1 := max(1, (e.db.NumPages()+alloc[0]-1)/alloc[0])
		stop := obs.StartProgress(e.opts.ProgressWriter, e.opts.ProgressInterval, func() string {
			return fmt.Sprintf("dualsim: windows %d/~%d, pages read %d, embeddings %d",
				r.scope.WindowsLevel1.Load(), estL1, r.scope.PagesRead.Load(),
				r.internalCount.Load()+r.externalCount.Load())
		})
		defer stop()
	}

	for i := 0; i < s.Windows(); i++ {
		w, err := s.Load(ctx, i, 0)
		if err != nil {
			return nil, err
		}
		err = rd.ProcessWindow(w)
		s.Release(w)
		if err != nil {
			return nil, err
		}
	}
	return rd.Finish()
}

// newRun builds the state of one enumeration over alloc, the per-level
// frame budgets: root candidates, resume totals, the pinned overlay and the
// attribution scope — the spec's, or one minted for the run.
func (e *Engine) newRun(ctx context.Context, spec RunSpec, alloc []int) *run {
	p := spec.Plan
	if spec.Scope == nil {
		spec.Scope = obs.NewScope(obs.NewTraceID())
	}
	r := &run{
		ctx:          ctx,
		e:            e,
		p:            p,
		k:            p.K,
		winBudget:    alloc,
		cand:         make([][][]graph.VertexID, len(p.Groups)),
		winData:      make([]*levelWindow, p.K),
		tables:       make([]vertexTable, p.K),
		pathPinned:   make(map[storage.PageID]int),
		onRows:       spec.OnRows,
		onCheckpoint: spec.OnCheckpoint,
		tracer:       e.tracer,
		em:           e.em,
		scope:        spec.Scope,
		levelSpan:    make([]uint64, p.K),
		winSpan:      make([]uint64, p.K),
		winStart:     make([]time.Time, p.K),
		windowsPer:   make([]int, p.K),
		matchers:     make(chan *matcher, e.opts.Threads),
	}
	if spec.Overlay != nil && !spec.Overlay.Empty() {
		r.overlay = spec.Overlay
	}
	if cp := spec.Resume; cp != nil {
		// Start from the frontier: totals from the checkpoint, window
		// ordinals continuing where the interrupted run stopped. Windows
		// before the cursor are never touched — no candidate work, no page
		// reads (the sweep of one starts its partition at the cursor).
		r.resumed = true
		r.internalCount.Store(cp.Internal)
		r.externalCount.Store(cp.External)
		r.windowsPer[0] = cp.Windows
	}
	for g := range r.cand {
		r.cand[g] = make([][]graph.VertexID, p.K)
	}
	return r
}

// root reports whether group g's node at level l is a forest root, whose
// candidates are every vertex (Algorithm 1 line 6): in a window, its ID range.
// The run stores candidates for the other nodes alone.
func (r *run) root(g, l int) bool { return r.p.Groups[g].Forest.Parent[l] < 0 }

// ensureSpanBudget raises every level's frame budget to maxSpan, the
// largest adjacency-list span (windows load whole vertices, so a level must
// be able to hold at least one), stealing frames from the richest levels.
// It fails when total frames simply cannot hold one maximal vertex per
// level — the remedy is a larger buffer.
func ensureSpanBudget(alloc []int, total, maxSpan int) error {
	if maxSpan*len(alloc) > total {
		return fmt.Errorf("core: largest adjacency list spans %d pages but only %d frames are available for %d levels; increase the buffer size",
			maxSpan, total, len(alloc))
	}
	for l := range alloc {
		for alloc[l] < maxSpan {
			richest := -1
			for j := range alloc {
				if j != l && alloc[j] > maxSpan && (richest < 0 || alloc[j] > alloc[richest]) {
					richest = j
				}
			}
			if richest < 0 {
				return fmt.Errorf("core: cannot give level %d of %d a %d-page window budget from %d frames; increase the buffer size",
					l+1, len(alloc), maxSpan, total)
			}
			take := min(alloc[richest]-maxSpan, maxSpan-alloc[l])
			alloc[richest] -= take
			alloc[l] += take
		}
	}
	return nil
}

// Count is a convenience wrapper returning only the occurrence count.
func (e *Engine) Count(q *graph.Query) (uint64, error) {
	res, err := e.Run(q)
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// run carries the state of one enumeration.
type run struct {
	ctx context.Context
	e   *Engine
	p   *plan.Plan
	k   int
	// winBudget is the per-level frame budget: what the window iterator
	// chops against and, at the last level, what a streamed pass may hold
	// pinned at once — the level's allocation.
	winBudget []int

	// cand[g][l] is the candidate vertex sequence of group g's node at
	// level l when that node is no forest root (root): computed into its own
	// memory by each window of its parent's level (computeChildCandidates)
	// and truncated when that window is done (clearChildCandidates).
	cand [][][]graph.VertexID
	// set is the scratch the candidate sequences are unioned through
	// (candSet).
	set vertexSet
	// winData[l] describes the currently loaded window at level l.
	winData []*levelWindow
	// tables[l] is the memory level l's window builds its vertex table in,
	// reused by the level's next window (one is loaded at a time).
	tables []vertexTable
	// pathPinned tracks pages pinned by the current recursion path (page ->
	// pin count). Maintained by the orchestrating goroutine only.
	pathPinned map[storage.PageID]int
	// overlay is the live-ingest snapshot this run enumerates against, or
	// nil for the pure base-file path (never non-nil-but-empty: RunSpec
	// normalization drops empty snapshots). When set, every page's load
	// callback merges it into the records it touches before any task can see
	// the page, so every adjacency read sees the mutated graph.
	overlay *delta.Snapshot

	workers *workerPool
	tracer  obs.Tracer     // nil when tracing is disabled
	em      *engineMetrics // never nil
	// scope is the query attribution sink every counter site mirrors into
	// (see obs.Scope).
	scope *obs.Scope
	// querySpan is the root span ID of this run's trace.
	querySpan uint64
	// levelSpan[l] / winSpan[l] are the span IDs of the open level and
	// window spans at level l, maintained by the orchestrator only:
	// level l's span parents on level l-1's current window span, windows
	// parent on their level's span.
	levelSpan []uint64
	winSpan   []uint64
	winStart  []time.Time // open time of each level's current window

	// matchers is the run's free list of matchers — slices, intersection
	// arena, list cache and bit set included — so steady state performs no
	// per-task allocation. It holds one per worker, as many as can run at
	// once, and unlike a sync.Pool a garbage collection does not empty it.
	matchers chan *matcher

	internalCount atomic.Uint64
	externalCount atomic.Uint64
	// windowsPer counts window iterations per level (index 0 = level 1,
	// continuing from the checkpoint's count on a resume; the last level
	// counts streamed passes).
	windowsPer []int

	// err is the run's first failure, set once (fail) by whichever of the
	// orchestrator, an I/O callback or a task meets it first. Every error
	// fails the run.
	err atomic.Pointer[error]

	// resumed reports a run replayed from a Checkpoint.
	resumed bool
	// onCheckpoint, when non-nil, receives the frontier after each
	// completed level-1 window (orchestrator goroutine only).
	onCheckpoint func(Checkpoint)

	// onRows, when non-nil, is handed the embeddings a task found, a batch
	// at a time (RunSpec.OnRows; matcher.handRows).
	onRows func(rows []graph.VertexID, width int)
}

// emit forwards e to the run's tracer, stamping the scope's trace ID so
// every event of a run carries its query identity. Span IDs are filled by
// the call sites that mint them.
func (r *run) emit(e obs.Event) {
	if r.tracer == nil {
		return
	}
	e.TraceID = r.scope.TraceID()
	r.tracer.Emit(e)
}

func (r *run) fail(err error) {
	if err == nil {
		return
	}
	r.err.CompareAndSwap(nil, &err)
}

// countOverflow is the error of a run whose embedding count does not fit in
// 64 bits (where says at which tally): the run fails rather than wraps.
func (r *run) countOverflow(where string) error {
	return fmt.Errorf("core: %s: the embedding count overflows 64 bits%s", r.p.Query.Name(), where)
}

// addCount adds n to a shared tally and reports whether the sum still fits
// in 64 bits. Adding 0 touches nothing.
func addCount(t *atomic.Uint64, n uint64) bool {
	return n == 0 || t.Add(n) >= n
}

func (r *run) firstErr() error {
	if p := r.err.Load(); p != nil {
		return *p
	}
	return nil
}
