// Package server is the long-lived query service over one opened database:
// a bounded pool of reusable engines sharing the global buffer budget
// (admission-controlled, with a bounded wait queue and 429-style rejection
// when saturated), a plan cache keyed by the canonical form of the query
// graph so repeated isomorphic queries skip preparation entirely, and an
// HTTP/JSON API (POST /query, GET /stats, plus the observability endpoints)
// with graceful drain.
//
// The shape follows the paper's cost model: DUALSIM's memory use is a fixed
// buffer budget regardless of the number of partial matches (PAPER.md §5),
// so a multi-tenant service on one machine divides that budget over a fixed
// number of engines instead of fanning out unboundedly; and preparation
// (plan.Prepare) is the per-query fixed cost the paper's Table 6 isolates,
// which the canonical-form cache amortizes across isomorphic requests.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dualsim/internal/buildinfo"
	"dualsim/internal/core"
	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/plan"
	"dualsim/internal/sharedscan"
	"dualsim/internal/storage"
)

// maxCanonicalVertices bounds plan-cache participation: the canonical-code
// search is degree-refined backtracking, fast for the paper-sized queries
// the planner accepts (K <= 10) but worst-case factorial; larger queries
// bypass the cache and pay Prepare per request.
const maxCanonicalVertices = 10

// Sizes nothing has needed to vary: the plan cache's LRU entries, and the
// slow-query ring and its top-K-by-pages leaderboard.
const (
	planCacheSize = 64
	slowLogSize   = 64
	slowLogTopK   = 8
)

// Config sizes the service. The zero value serves with conservative
// defaults: 2 engines, a queue of 4x the pool, 2s queue wait, 100k rows.
type Config struct {
	// Engines is the pool size: the number of concurrently running queries.
	// The buffer budget in Engine (BufferFrames or BufferFraction) is the
	// GLOBAL budget, divided evenly across the pool, mirroring the paper's
	// fixed buffer budget for one machine.
	Engines int
	// QueueDepth bounds how many admitted requests may wait for an engine;
	// beyond it requests are rejected immediately with 429.
	QueueDepth int
	// QueueWait bounds how long a queued request waits for an engine before
	// a 429 (requests may ask for less via queue_wait_ms).
	QueueWait time.Duration
	// RowLimit caps embeddings rows streamed per request; requests may ask
	// for less via limit. Runs are cancelled once the cap is reached.
	RowLimit int
	// SlowQueryThreshold is the duration (queue wait + run) at which a
	// completed query enters the slow-query ring (default 500ms; negative
	// records every query). The top-K-by-pages-read leaderboard is
	// independent of the threshold.
	SlowQueryThreshold time.Duration
	// TraceWriter, when non-nil, receives the JSONL span stream of every
	// request: query/plan spans emitted at admission plus the engine's
	// run/level/window spans, all stamped with the request's trace ID. The
	// server owns the tracer and flushes it on Drain and Close so the
	// final spans of in-flight queries are never lost. Ignored when
	// Engine.Tracer is set explicitly.
	TraceWriter io.Writer
	// ShareScan enables shared-scan multi-query execution: eligible
	// queries (no resume token) become riders on one cohort engine whose
	// buffer is the FULL global budget, sharing a single level-1 window
	// sweep so N concurrent queries pay one sweep's physical reads instead
	// of N. Ineligible or bounced queries fall back to the solo pool. This
	// is the cohort-vs-solo policy knob.
	ShareScan bool
	// CohortMaxRiders bounds how many queries ride one sweep concurrently
	// (default 4). A fresh sweep loads its first window at once; later
	// arrivals, and those beyond the bound, board at a window boundary.
	CohortMaxRiders int
	// Mutable enables live ingest: POST /edges applies edge inserts and
	// deletes to an in-memory delta overlay, every subsequent query merges
	// the overlay into its window loads, and each applied batch advances
	// the data epoch (invalidating outstanding resume tokens). The base file on disk is untouched until compaction.
	Mutable bool
	// CompactEvery, with Mutable, is the overlay-op threshold that kicks a
	// background compaction: the overlay is folded into a fresh database
	// file which atomically replaces the live one, the next engine
	// generation is built over it and published, requests admitted to the
	// old generation (cohort riders included) finish on the old file, and
	// only then do its engines close and the folded ops drain from the
	// overlay. 0 disables automatic compaction (POST /admin/compact still
	// triggers one on demand). Compaction requires the base to be a
	// *storage.DB, and keeps its page size and record encoding.
	CompactEvery int
	// Engine is the per-engine template. Metrics and buffer sizing
	// are managed by the server (buffer fields are reinterpreted as the
	// global budget; Threads defaults to GOMAXPROCS/Engines).
	Engine core.Options
}

func (c Config) withDefaults() Config {
	if c.Engines <= 0 {
		c.Engines = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Engines
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.RowLimit <= 0 {
		c.RowLimit = 100_000
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = 500 * time.Millisecond
	} else if c.SlowQueryThreshold < 0 {
		c.SlowQueryThreshold = 0
	}
	if c.CohortMaxRiders <= 0 {
		c.CohortMaxRiders = 4
	}
	if c.Engine.Threads <= 0 {
		c.Engine.Threads = runtime.GOMAXPROCS(0) / c.Engines
		c.Engine.Threads = max(c.Engine.Threads, 1)
	}
	return c
}

// Server is the query service. Create with New, expose with Listen (or
// mount Handler yourself), stop with Drain (graceful) or Close (abrupt).
type Server struct {
	cfg Config
	reg *obs.Registry

	cache  *plan.Cache
	tokens *tokenCodec
	br     *breaker

	mu      sync.Mutex  // guards gen: compaction publishes a successor
	gen     *generation // the database file new requests run on
	waiters atomic.Int64
	// cohortInflight counts cohort-routed requests: at most CohortMaxRiders
	// riding plus QueueDepth boarding, 429 beyond.
	cohortInflight atomic.Int64

	// Live ingest (nil unless Config.Mutable): the delta overlay every
	// query snapshots at admission. stampMu orders on-disk epoch stamps
	// and plan-cache bumps so a later batch can never be overwritten by an
	// earlier one racing through the handler.
	store           *delta.Store
	stampMu         sync.Mutex
	opsSinceCompact atomic.Uint64
	compacting      atomic.Bool
	compactions     atomic.Uint64
	compactErrors   atomic.Uint64

	draining   atomic.Bool
	inflight   sync.WaitGroup
	baseCtx    context.Context // cancelled on Close / expired Drain: aborts runs
	baseCancel context.CancelFunc

	mux  *http.ServeMux
	hsrv *http.Server
	lis  net.Listener

	start   time.Time
	sm      *serverMetrics
	slowlog *obs.SlowLog
	// trc is the span sink shared by admission (query/plan spans) and the
	// engines (run/level/window spans); nil disables tracing.
	trc obs.Tracer
}

// generation is one database file and the engines that read it: the solo
// pool's slots and, with ShareScan, the cohort engine its scheduler owns.
// Every request enters the current generation once, at admission, and
// leaves it (runs.Done) after it has returned every engine it took, so a
// compaction can publish a successor over the folded file, wait for the
// old generation's requests — queued waiters and cohort riders included —
// and only then close it. Every engine counts into the server's registry,
// so /metrics is fleet-wide and survives the swap.
type generation struct {
	db     core.Database
	slots  chan *core.Engine
	cohort *core.Engine          // nil without ShareScan
	sched  *sharedscan.Scheduler // owns cohort; nil without ShareScan
	runs   sync.WaitGroup
}

// New builds the service over db (any core.Database — *storage.DB in
// production, a faultdb wrapper in the chaos harness): the engine pool
// (dividing the configured buffer budget), the plan cache, the resume-token
// codec, the pool circuit breaker, the metric families, and the HTTP mux.
// It does not bind a listener; call Listen, or serve Handler yourself.
func New(db core.Database, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Engine.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tokens, err := newTokenCodec()
	if err != nil {
		return nil, err
	}
	if cfg.Engine.Tracer == nil && cfg.TraceWriter != nil {
		cfg.Engine.Tracer = obs.NewJSONLTracer(cfg.TraceWriter)
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		cache:      plan.NewCache(planCacheSize),
		tokens:     tokens,
		br:         newBreaker(poolBreaker),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		start:      time.Now(),
		slowlog:    obs.NewSlowLog(cfg.SlowQueryThreshold, slowLogSize, slowLogTopK),
		trc:        cfg.Engine.Tracer,
	}
	if s.gen, err = s.newGeneration(db); err != nil {
		baseCancel()
		return nil, err
	}
	if cfg.Mutable {
		// The overlay's epoch continues the base file's: a freshly opened
		// file that has already absorbed (and compacted) mutations reports
		// its content epoch, and the first POST /edges advances from there.
		var epoch uint64
		if sdb, ok := db.(*storage.DB); ok {
			epoch = sdb.Epoch()
		}
		s.store = delta.NewStore(db.NumVertices(), epoch)
	}
	s.cache.Register(reg)
	s.sm = registerServerMetrics(reg, s)
	buildinfo.Register(reg)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
	if cfg.Mutable {
		s.mux.HandleFunc("POST /edges", s.handleEdges)
		s.mux.HandleFunc("POST /admin/compact", s.handleCompact)
	}
	obs.Register(s.mux, reg)
	return s, nil
}

// newGeneration builds the engines over db: Engines pool members, each with
// its share of the global budget, and with ShareScan the cohort engine and
// its scheduler. On failure it closes what it built.
func (s *Server) newGeneration(db core.Database) (*generation, error) {
	g := &generation{db: db, slots: make(chan *core.Engine, s.cfg.Engines)}
	for i := 0; i < s.cfg.Engines; i++ {
		e, err := s.newEngine(db, false)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("server: building engine %d/%d: %w", i+1, s.cfg.Engines, err)
		}
		g.slots <- e
	}
	if s.cfg.ShareScan {
		ce, err := s.newEngine(db, true)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("server: building cohort engine: %w", err)
		}
		g.cohort = ce
		g.sched = sharedscan.New(ce, sharedscan.Options{MaxRiders: s.cfg.CohortMaxRiders, Metrics: s.reg})
	}
	return g, nil
}

// newEngine builds one engine over db. A pool member gets its share of the
// global budget; the cohort engine is "one big buffer, N riders": the
// undivided budget and the full thread allowance, the resources N solo
// engines would have had combined.
func (s *Server) newEngine(db core.Database, cohort bool) (*core.Engine, error) {
	opts := s.cfg.Engine
	opts.Metrics = s.reg
	switch {
	case cohort:
		opts.Threads *= s.cfg.Engines
	case opts.BufferFrames > 0:
		opts.BufferFrames /= s.cfg.Engines
	case opts.BufferFraction > 0:
		opts.BufferFraction /= float64(s.cfg.Engines)
	}
	return core.NewEngine(db, opts)
}

// close closes the scheduler first (its sweeps hold pins on the cohort
// engine until their riders detach), then the cohort engine, then every
// engine the slots hold: after runs.Wait, every engine the generation owns.
func (g *generation) close() {
	if g.sched != nil {
		g.sched.Close()
	}
	if g.cohort != nil {
		g.cohort.Close()
	}
	for {
		select {
		case e := <-g.slots:
			e.Close()
		default:
			return
		}
	}
}

// current returns the generation new requests run on.
func (s *Server) current() *generation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// enter admits a request to the current generation: until the matching
// g.runs.Done, a compaction waits before closing g.
func (s *Server) enter() *generation {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen.runs.Add(1)
	return s.gen
}

// Handler returns the service's mux: POST /query, GET /stats, /metrics,
// /debug/vars, /debug/pprof/*.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the service's metric registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Listen binds addr (":0" picks a free port; read it back with Addr) and
// serves in the background until Drain or Close.
func (s *Server) Listen(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	s.hsrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.hsrv.Serve(lis) }()
	return nil
}

// Addr returns the bound address, or "" before Listen.
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Drain gracefully stops the service: new requests get 503, queued and
// in-flight requests run to completion, then engines close. If ctx expires
// first, remaining runs are cancelled through their contexts (pins
// released, engines left clean) and ctx.Err() is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel() // cancels every in-flight run's context
		<-done
		err = ctx.Err()
	}
	if s.hsrv != nil {
		// Handlers are done; this closes the listener and idle connections.
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.hsrv.Shutdown(shutCtx)
	}
	s.baseCancel()
	s.current().close()
	s.flushTracer()
	return err
}

// Close stops the service abruptly: in-flight runs are cancelled, the
// listener closes, engines close.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.baseCancel()
	if s.hsrv != nil {
		_ = s.hsrv.Close()
	}
	s.inflight.Wait()
	s.current().close()
	s.flushTracer()
	return nil
}

// flushTracer pushes buffered span events to the trace sink — the last
// step of Drain/Close, after every in-flight run has emitted its final
// spans (Engine.Close also flushes, but a drained server may have already
// replaced or dropped engines).
func (s *Server) flushTracer() {
	if f, ok := s.trc.(obs.Flusher); ok {
		_ = f.Flush()
	}
}

// planFor resolves q to an executable plan: canonicalize, consult the
// cache, Prepare on miss. It returns the plan, the permutation mapping q's
// vertices onto the plan's query (identity when the cache was bypassed),
// the stable plan key resume tokens are bound to, and whether the plan
// came from the cache.
func (s *Server) planFor(q *graph.Query) (*plan.Plan, []int, string, bool, error) {
	if q.NumVertices() > maxCanonicalVertices {
		// Cache-bypassed queries still need a plan key for resume tokens.
		// The name cannot be it (every edge-list spec is "custom"): the key
		// is the query's own edge list, so a token resumes only the query
		// it was minted for — a relabelled spelling of it gets 409.
		key := "edges:" + edgeListKey(q)
		p, err := plan.Prepare(q, plan.Options{})
		return p, identityPerm(q.NumVertices()), key, false, err
	}
	key, canon, perm, err := graph.CanonicalQuery(q, q.Name())
	if err != nil {
		return nil, nil, "", false, err
	}
	// Prepare on the canonical representative, so every isomorphic query
	// maps onto the same plan and the same embedding remapping rule.
	// GetOrBuild collapses concurrent misses on one key into a single
	// Prepare (singleflight) — under shared-scan admission batches, N
	// arrivals of the same query cost one plan build, not N.
	p, built, err := s.cache.GetOrBuild(key, func() (*plan.Plan, error) {
		return plan.Prepare(canon, plan.Options{})
	})
	if err != nil {
		return nil, nil, "", false, err
	}
	return p, perm, key, !built, nil
}

// edgeListKey spells q as its vertex count and its edge list, which
// graph.Query keeps normalized (lo, hi) and sorted.
func edgeListKey(q *graph.Query) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", q.NumVertices())
	for _, e := range q.Edges() {
		fmt.Fprintf(&b, ",%d-%d", e[0], e[1])
	}
	return b.String()
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// errQueueFull and errQueueWait are the solo pool's refusals: immediate
// saturation, and a queue wait that expired before an engine came free.
var (
	errQueueFull = errors.New("admission queue full")
	errQueueWait = errors.New("no engine free")
)

// admitSolo admits a request to g's solo pool within its queue wait — the
// server's QueueWait, or less when the request asks (queue_wait_ms) — and
// adds the time it waited to attr.queueNS. A refusal is errQueueFull or
// errQueueWait (booked under rejectedWait); a caller whose ctx ended while
// queued gets ctx's error.
func (s *Server) admitSolo(ctx context.Context, g *generation, req QueryRequest, attr *queryAttribution) (*core.Engine, error) {
	queueWait := s.cfg.QueueWait
	if d := time.Duration(req.QueueWaitMS) * time.Millisecond; d > 0 && d < queueWait {
		queueWait = d
	}
	waitCtx, cancel := context.WithTimeout(ctx, queueWait)
	defer cancel()
	start := time.Now()
	e, err := s.acquire(waitCtx, g)
	attr.queueNS += time.Since(start).Nanoseconds()
	if err != nil && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		s.sm.rejectedWait.Inc()
		err = fmt.Errorf("%w within %v", errQueueWait, queueWait)
	}
	return e, err
}

// acquire admits the request to g's engine pool: an idle engine if one is
// free, else a bounded wait governed by ctx. Returns errQueueFull when the
// queue bound is hit, ctx.Err() when the wait expires or the client leaves.
func (s *Server) acquire(ctx context.Context, g *generation) (*core.Engine, error) {
	select {
	case e := <-g.slots:
		return e, nil
	default:
	}
	if int(s.waiters.Add(1)) > s.cfg.QueueDepth {
		s.waiters.Add(-1)
		s.sm.rejectedFull.Inc()
		return nil, errQueueFull
	}
	defer s.waiters.Add(-1)
	start := time.Now()
	select {
	case e := <-g.slots:
		s.sm.queueWaitUS.Observe(time.Since(start).Microseconds())
		return e, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// release returns an engine to g's pool. An engine that came back with
// pinned frames leaked a pin (a bug, or a run unwound abnormally); it is
// closed and replaced over g's database rather than recycled, so one bad
// run cannot shrink effective capacity for every later tenant.
func (s *Server) release(g *generation, e *core.Engine) {
	if e.PinnedFrames() > 0 {
		s.sm.recycled.Inc()
		e.Close()
		ne, err := s.newEngine(g.db, false)
		if err != nil {
			log.Printf("dualsim/server: replacing leaky engine failed, pool shrinks to %d: %v", len(g.slots), err)
			return
		}
		e = ne
	}
	g.slots <- e
}

// serverMetrics is the dualsim_server_* family.
type serverMetrics struct {
	requests        *obs.Counter
	rejectedFull    *obs.Counter
	rejectedWait    *obs.Counter
	active          *obs.Gauge
	queueWaitUS     *obs.Histogram
	rowsStreamed    *obs.Counter
	disconnects     *obs.Counter
	recycled        *obs.Counter
	breakerRejects  *obs.Counter
	resumesOK       *obs.Counter
	resumesRejected *obs.Counter
	cohortFallbacks *obs.Counter

	ingestBatches  *obs.Counter
	ingestOps      *obs.Counter
	ingestRejected *obs.Counter
	// resumesStale counts resume tokens rejected because the data epoch
	// advanced past the one the token was minted at. It is a subset of
	// resumesRejected, exported as the reason="stale_epoch" breakdown of
	// the dualsim_resumes_total family.
	resumesStale atomic.Uint64
}

func registerServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	sm := &serverMetrics{
		requests:     reg.Counter("dualsim_server_requests_total", "query requests received"),
		rejectedFull: reg.Counter("dualsim_server_rejected_queue_full_total", "requests rejected with 429 because the wait queue was full"),
		rejectedWait: reg.Counter("dualsim_server_rejected_deadline_total", "requests rejected with 429 because the queue wait deadline expired"),
		active:       reg.Gauge("dualsim_server_active_requests", "requests currently running on an engine"),
		queueWaitUS:  reg.Histogram("dualsim_server_queue_wait_us", "time admitted requests waited for an engine, microseconds"),
		rowsStreamed: reg.Counter("dualsim_server_rows_streamed_total", "embedding rows streamed to clients"),
		disconnects:  reg.Counter("dualsim_server_client_disconnects_total", "requests whose client vanished mid-stream (run cancelled)"),
		recycled:     reg.Counter("dualsim_server_engines_recycled_total", "pool engines replaced because a run leaked buffer pins"),

		breakerRejects:  reg.Counter("dualsim_server_breaker_rejected_total", "requests rejected fast with 429 by the open circuit breaker"),
		resumesOK:       reg.Counter("dualsim_resumes_ok_total", "resume tokens accepted and replayed"),
		resumesRejected: reg.Counter("dualsim_resumes_rejected_total", "resume tokens rejected (bad signature, wrong plan, stale checkpoint)"),
		cohortFallbacks: reg.Counter("dualsim_server_cohort_fallbacks_total", "cohort-routed queries bounced to a solo engine (rider not eligible)"),

		ingestBatches:  reg.Counter("dualsim_ingest_batches_total", "edge mutation batches applied to the delta overlay (each bumps the data epoch)"),
		ingestOps:      reg.Counter("dualsim_ingest_ops_total", "edge mutation ops applied (inserts + deletes)"),
		ingestRejected: reg.Counter("dualsim_ingest_rejected_total", "edge mutation batches rejected (malformed body or invalid endpoints)"),
	}
	reg.CounterFuncLabeled("dualsim_resumes_total",
		"resume attempts by outcome (ok + rejected)",
		[]obs.Label{{Key: "reason", Value: "stale_epoch"}}, sm.resumesStale.Load)
	reg.GaugeFunc("dualsim_data_epoch", "current data epoch (mutation batches applied over the base file's content)", func() float64 {
		return float64(s.dataEpoch())
	})
	reg.GaugeFunc("dualsim_delta_overlay_vertices", "vertices with pending overlay mutations awaiting compaction", func() float64 {
		if s.store == nil {
			return 0
		}
		return float64(s.store.Snapshot().Len())
	})
	reg.CounterFunc("dualsim_compactions_total", "overlay compactions folded into a fresh base file and swapped live", s.compactions.Load)
	reg.CounterFunc("dualsim_compaction_errors_total", "overlay compactions that failed (overlay retained, base unchanged)", s.compactErrors.Load)
	reg.CounterFunc("dualsim_server_rejected_total", "requests rejected with 429 (queue full + deadline)", func() uint64 {
		return sm.rejectedFull.Value() + sm.rejectedWait.Value()
	})
	reg.CounterFunc("dualsim_resumes_total", "resume attempts by outcome (ok + rejected)", func() uint64 {
		return sm.resumesOK.Value() + sm.resumesRejected.Value()
	})
	reg.GaugeFunc("dualsim_breaker_state", "pool breaker state: 0 closed, 2 open, 3 half-open", func() float64 {
		st, _ := s.br.snapshot()
		return float64(st)
	})
	reg.CounterFunc("dualsim_breaker_trips_total", "times the pool breaker opened", func() uint64 {
		_, trips := s.br.snapshot()
		return trips
	})
	reg.GaugeFunc("dualsim_server_queue_depth", "requests waiting for an engine", func() float64 {
		return float64(s.waiters.Load())
	})
	reg.GaugeFunc("dualsim_server_engines_idle", "pool engines not running a query", func() float64 {
		return float64(len(s.current().slots))
	})
	reg.GaugeFunc("dualsim_server_draining", "1 while the server refuses new work", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	reg.CounterFunc("dualsim_slow_queries_total", "completed queries at/over the slow-query threshold", func() uint64 {
		_, slow := s.slowlog.Counts()
		return slow
	})
	return sm
}
