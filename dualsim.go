// Package dualsim is a disk-based, single-machine parallel subgraph
// enumeration library — a from-scratch reproduction of DUALSIM (Kim, Han,
// Lee, Lee, Bhowmick, Ko, Jarrah: "DUALSIM: Parallel Subgraph Enumeration
// in a Massive Graph on a Single Machine", SIGMOD 2016).
//
// The library enumerates every occurrence of a small query graph (triangle,
// square, clique, ...) in a data graph stored in slotted pages on disk,
// using the paper's dual approach: instead of fixing a query matching order
// and chasing data vertices across random pages, it pins windows of disk
// pages and enumerates all query sequences that can match them, keeping
// memory bounded regardless of the number of partial matches.
//
// Typical use:
//
//	// one-time preprocessing: degree-ordering external sort + paging
//	stats, err := dualsim.BuildFromEdgeFile("graph.db", "edges.txt", dualsim.BuildOptions{})
//
//	db, err := dualsim.Open("graph.db")
//	defer db.Close()
//	eng, err := db.NewEngine(dualsim.Options{BufferFraction: 0.15})
//	defer eng.Close()
//	count, err := eng.Count(dualsim.Triangle())
package dualsim

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/plan"
	"dualsim/internal/storage"
)

// Error taxonomy (see internal/storage): reads fail either because a page's
// content is wrong (*CorruptPageError) or because it could not be fetched
// (*IOError, transient or permanent). Classify with errors.As and
// IsTransient; never parse error strings.
type (
	// CorruptPageError reports a page whose content failed validation
	// (checksum mismatch, mangled header, out-of-bounds slots). It always
	// names the offending page.
	CorruptPageError = storage.CorruptPageError
	// IOError reports a failure to fetch a page from the device.
	IOError = storage.IOError
	// RetryPolicy bounds the retry/backoff behaviour of the resilient read
	// path enabled by Options.Retry.
	RetryPolicy = storage.RetryPolicy
	// RetryStats counts the retry layer's recovery activity.
	RetryStats = storage.RetryStats
	// VerifyReport summarizes a page-level scan (DB.VerifyPages).
	VerifyReport = storage.VerifyReport
	// MetricsSnapshot is a point-in-time copy of every engine metric
	// (Result.Metrics, the /debug/vars payload, the CLI -json output).
	MetricsSnapshot = obs.Snapshot
	// TraceEvent is one structured lifecycle record of the JSONL trace
	// written to Options.TraceWriter. See its field docs for the event
	// vocabulary (run_start, window_open, ..., run_end).
	TraceEvent = obs.Event
	// CostProfile is the per-query attributed cost breakdown of every run
	// (Result.Profile), and of a served query that asks for it with POST
	// /query?profile=1: time split (queue/prep/exec/io-wait/pin-wait),
	// pages read, window behaviour, kernel mix, resilience.
	CostProfile = obs.CostProfile
)

// IsTransient reports whether err is a read failure worth retrying.
func IsTransient(err error) bool { return storage.IsTransient(err) }

// IsCorrupt reports whether err carries a *CorruptPageError, and returns it.
func IsCorrupt(err error) (*CorruptPageError, bool) { return storage.IsCorrupt(err) }

// VertexID identifies a data vertex. After preprocessing, vertex IDs follow
// the paper's degree-based total order.
type VertexID = graph.VertexID

// Query is an undirected, unlabeled, connected query graph.
type Query = graph.Query

// NewQuery builds a query graph over vertices 0..n-1 from an edge list.
func NewQuery(name string, n int, edges [][2]int) (*Query, error) {
	return graph.NewQuery(name, n, edges)
}

// Catalog queries (Figure 8 of the paper).
var (
	// Triangle returns q1.
	Triangle = graph.Triangle
	// Square returns q2, the 4-cycle.
	Square = graph.Square
	// ChordalSquare returns q3, the 4-cycle plus a chord.
	ChordalSquare = graph.ChordalSquare
	// Clique4 returns q4.
	Clique4 = graph.Clique4
	// House returns q5, the 5-vertex house.
	House = graph.House
	// PaperQueries returns q1..q5.
	PaperQueries = graph.PaperQueries
	// QueryByName resolves "q1".."q5" or long names.
	QueryByName = graph.QueryByName
	// Clique returns the k-clique.
	Clique = graph.Clique
	// Cycle returns the k-cycle.
	Cycle = graph.Cycle
	// Path returns the k-vertex path.
	Path = graph.Path
	// Star returns the k-leaf star.
	Star = graph.Star
)

// BuildOptions configures database construction.
type BuildOptions struct {
	// PageSize is the slotted page size in bytes (default 4096).
	PageSize int
	// TempDir holds external-sort run files (default: system temp).
	TempDir string
	// SkipReorder keeps original vertex IDs instead of degree ordering.
	SkipReorder bool
	// AppendFraction leaves the top fraction of vertices unsorted,
	// simulating an evolving graph (Section 6.2.1).
	AppendFraction float64
	// Compress stores adjacency lists delta+varint encoded, shrinking the
	// database and the number of reads.
	Compress bool
}

// BuildStats reports preprocessing work (the paper's Table 3 metric).
type BuildStats struct {
	NumVertices int
	NumEdges    uint64
	NumPages    int
	MaxDegree   int
	SortRuns    int
	Elapsed     time.Duration
}

func (o BuildOptions) internal() storage.BuildOptions {
	return storage.BuildOptions{
		PageSize:       o.PageSize,
		TempDir:        o.TempDir,
		SkipReorder:    o.SkipReorder,
		AppendFraction: o.AppendFraction,
		Compress:       o.Compress,
	}
}

func buildStats(s *storage.BuildStats) *BuildStats {
	return &BuildStats{
		NumVertices: s.NumVertices,
		NumEdges:    s.NumEdges,
		NumPages:    s.NumPages,
		MaxDegree:   s.MaxDegree,
		SortRuns:    s.SortRuns,
		Elapsed:     s.Elapsed,
	}
}

// BuildFromEdges preprocesses an in-memory edge list over n vertices into a
// database file at path.
func BuildFromEdges(path string, n int, edges [][2]VertexID, opt BuildOptions) (*BuildStats, error) {
	s, err := storage.Build(path, storage.NewSliceSource(n, edges), opt.internal())
	if err != nil {
		return nil, err
	}
	return buildStats(s), nil
}

// BuildFromEdgeFile preprocesses a whitespace-separated edge-list text file
// ("u v" per line, '#' comments) into a database file at path.
func BuildFromEdgeFile(path, edgeFile string, opt BuildOptions) (*BuildStats, error) {
	n, _, err := storage.ScanEdgeFile(edgeFile)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("dualsim: %s contains no edges", edgeFile)
	}
	src := storage.NewFileSource(edgeFile, n)
	defer src.Close()
	s, err := storage.Build(path, src, opt.internal())
	if err != nil {
		return nil, err
	}
	return buildStats(s), nil
}

// DB is a read-only handle to a built database.
type DB struct {
	db *storage.DB
}

// Open opens a database built with BuildFromEdges or BuildFromEdgeFile.
func Open(path string) (*DB, error) {
	db, err := storage.Open(path)
	if err != nil {
		return nil, err
	}
	return &DB{db: db}, nil
}

// Close releases the database file.
func (d *DB) Close() error { return d.db.Close() }

// NumVertices returns the vertex count.
func (d *DB) NumVertices() int { return d.db.NumVertices() }

// NumEdges returns the undirected edge count.
func (d *DB) NumEdges() uint64 { return d.db.NumEdges() }

// NumPages returns the data page count.
func (d *DB) NumPages() int { return d.db.NumPages() }

// PageSize returns the page size in bytes.
func (d *DB) PageSize() int { return d.db.PageSize() }

// Verify checks the whole database as VerifyPages does and returns its first
// failure, or nil.
func (d *DB) Verify() error { return d.db.VerifyIntegrity() }

// VerifyPages reads every page once, validates it and checks it against the
// pages before it and the page-first array, collecting all failures by family
// (corruption vs I/O) instead of stopping at the first.
func (d *DB) VerifyPages() *VerifyReport { return d.db.VerifyPages() }

// Path returns the path of the underlying database file.
func (d *DB) Path() string { return d.db.Path() }

// FileStats summarizes the database's physical layout.
type FileStats struct {
	Pages         int
	PageSize      int
	FillFactor    float64
	Records       int
	SplitVertices int
}

// Stats scans every page and reports layout statistics.
func (d *DB) Stats() (*FileStats, error) {
	st, err := d.db.Stats()
	if err != nil {
		return nil, err
	}
	return &FileStats{
		Pages:         st.Pages,
		PageSize:      st.PageSize,
		FillFactor:    st.FillFactor,
		Records:       st.Records,
		SplitVertices: st.SplitVertices,
	}, nil
}

// Options configures an enumeration engine.
type Options struct {
	// Threads is the number of enumeration workers (default GOMAXPROCS).
	Threads int
	// BufferFrames fixes the buffer capacity in pages; when zero,
	// BufferFraction applies.
	BufferFrames int
	// BufferFraction sizes the buffer as a fraction of the database's
	// pages (default 0.15, the paper's default).
	BufferFraction float64
	// PrefetchFrames has no effect; ROADMAP item 10(2) removes it.
	PrefetchFrames int
	// PerPageLatency and SeekLatency simulate device characteristics for
	// experiments.
	PerPageLatency time.Duration
	SeekLatency    time.Duration
	// Retry, when non-nil, turns on the resilient read path: transient
	// device faults are retried with exponential backoff and jitter, and
	// checksum mismatches are re-read once (torn-read tolerance) before
	// surfacing a *CorruptPageError. It is the engine's only recovery: a
	// read error that outlives it fails the run.
	Retry *RetryPolicy
	// MetricsAddr, when non-empty, serves the engine's metrics over HTTP
	// for the engine's lifetime: /metrics (Prometheus text format),
	// /debug/vars (JSON snapshot) and /debug/pprof. Use ":0" to bind a
	// free port and read it back with Engine.MetricsAddr.
	MetricsAddr string
	// TraceWriter, when non-nil, receives a JSONL trace of window/stage
	// lifecycle events (one TraceEvent per line). Tracing is off — and
	// effectively free — when nil. The engine buffers and flushes the
	// trace on Close, so the final events of the last run are never lost.
	TraceWriter io.Writer
	// ProgressInterval, when positive, prints a progress line (windows
	// done/estimated, pages read, embeddings) every interval during a run,
	// to ProgressWriter (default os.Stderr).
	ProgressInterval time.Duration
	// ProgressWriter overrides the progress destination.
	ProgressWriter io.Writer
}

// coreOptions lowers the public options onto the engine's, wiring the
// observability plumbing (tracer, progress destination).
func (o Options) coreOptions() core.Options {
	var tracer obs.Tracer
	if o.TraceWriter != nil {
		tracer = obs.NewJSONLTracer(o.TraceWriter)
	}
	pw := o.ProgressWriter
	if pw == nil {
		pw = os.Stderr
	}
	return core.Options{
		Threads:          o.Threads,
		BufferFrames:     o.BufferFrames,
		BufferFraction:   o.BufferFraction,
		PerPageLatency:   o.PerPageLatency,
		SeekLatency:      o.SeekLatency,
		Retry:            o.Retry,
		Tracer:           tracer,
		ProgressInterval: o.ProgressInterval,
		ProgressWriter:   pw,
	}
}

// Result reports one enumeration run. It marshals to JSON with snake_case
// keys (the CLI's `run -json` emits it verbatim).
type Result struct {
	// Count is the number of occurrences (each counted exactly once).
	Count uint64 `json:"count"`
	// Internal and External split Count by where the red match resided.
	Internal uint64 `json:"internal"`
	External uint64 `json:"external"`
	// PrepTime is the preparation step (Table 6); ExecTime the execution.
	PrepTime time.Duration `json:"prep_ns"`
	ExecTime time.Duration `json:"exec_ns"`
	// PhysicalReads and LogicalReads count page I/O.
	PhysicalReads uint64 `json:"physical_reads"`
	LogicalReads  uint64 `json:"logical_reads"`
	// BufferFrames is the pool capacity used.
	BufferFrames int `json:"buffer_frames"`
	// Level1Windows counts internal-area window iterations.
	Level1Windows int `json:"level1_windows"`
	// RedVertices is |V_R| (the traversal levels); VGroups the number of
	// v-group sequences.
	RedVertices int `json:"red_vertices"`
	VGroups     int `json:"v_groups"`
	// Metrics is a snapshot of the engine's metric registry at the end of
	// the run; counters are cumulative across runs of one engine.
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
	// Profile is the run's attributed cost breakdown, always set. Unlike
	// Metrics it covers THIS run only.
	Profile *CostProfile `json:"profile,omitempty"`
}

// Engine enumerates subgraphs of one database.
type Engine struct {
	eng *core.Engine
	srv *obs.Server // non-nil when Options.MetricsAddr was set
}

// NewEngine creates an engine over the database. When Options.MetricsAddr
// is set, the metrics endpoint serves until Close.
func (d *DB) NewEngine(opt Options) (*Engine, error) {
	eng, err := core.NewEngine(d.db, opt.coreOptions())
	if err != nil {
		return nil, err
	}
	e := &Engine{eng: eng}
	if opt.MetricsAddr != "" {
		srv, err := obs.Serve(opt.MetricsAddr, eng.Registry())
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("dualsim: serving metrics on %s: %w", opt.MetricsAddr, err)
		}
		e.srv = srv
	}
	return e, nil
}

// MetricsAddr returns the bound address of the metrics endpoint, or ""
// when Options.MetricsAddr was not set.
func (e *Engine) MetricsAddr() string {
	if e.srv == nil {
		return ""
	}
	return e.srv.Addr()
}

// Metrics returns a snapshot of the engine's metric registry.
func (e *Engine) Metrics() *MetricsSnapshot { return e.eng.Registry().Snapshot() }

// Close releases the engine's buffer pool and stops the metrics endpoint.
func (e *Engine) Close() {
	if e.srv != nil {
		e.srv.Close()
	}
	e.eng.Close()
}

// Run enumerates q and returns statistics.
func (e *Engine) Run(q *Query) (*Result, error) {
	return e.RunContext(context.Background(), q)
}

// RunContext is Run observing ctx: cancellation (or ctx's deadline, the way
// to bound a run) stops the traversal promptly, releases every buffer pin,
// and returns ctx.Err(). The engine stays usable afterwards.
func (e *Engine) RunContext(ctx context.Context, q *Query) (*Result, error) {
	res, err := e.eng.RunContext(ctx, q)
	if err != nil {
		return nil, err
	}
	return publicResult(res), nil
}

// Count returns the number of occurrences of q.
func (e *Engine) Count(q *Query) (uint64, error) {
	res, err := e.Run(q)
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// RetryStats returns the retry layer's recovery counters; the zero value
// when Options.Retry was not set.
func (e *Engine) RetryStats() RetryStats { return e.eng.RetryStats() }

func publicResult(res *core.Result) *Result {
	return &Result{
		Count:         res.Count,
		Internal:      res.Internal,
		External:      res.External,
		PrepTime:      res.PrepTime,
		ExecTime:      res.ExecTime,
		PhysicalReads: res.Profile.PagesRead,
		LogicalReads:  res.Profile.LogicalReads,
		BufferFrames:  res.BufferFrames,
		Level1Windows: res.Level1Windows,
		RedVertices:   res.Plan.K,
		VGroups:       len(res.Plan.Groups),
		Metrics:       res.Metrics,
		Profile:       res.Profile,
	}
}

// Embedding maps query vertex i to Embedding[i].
type Embedding []VertexID

// Enumerate calls fn once for every occurrence of q in the database. fn
// receives its own copy of the embedding and is invoked from a single
// goroutine at a time.
func (d *DB) Enumerate(q *Query, opt Options, fn func(Embedding)) (*Result, error) {
	return d.EnumerateContext(context.Background(), q, opt, fn)
}

// EnumerateContext is Enumerate observing ctx (see Engine.RunContext).
func (d *DB) EnumerateContext(ctx context.Context, q *Query, opt Options, fn func(Embedding)) (*Result, error) {
	copts := opt.coreOptions()
	p, err := plan.Prepare(q, plan.Options{})
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(d.db, copts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if opt.MetricsAddr != "" {
		srv, err := obs.Serve(opt.MetricsAddr, eng.Registry())
		if err != nil {
			return nil, fmt.Errorf("dualsim: serving metrics on %s: %w", opt.MetricsAddr, err)
		}
		defer srv.Close()
	}
	var mu sync.Mutex
	res, err := eng.RunSpecContext(ctx, core.RunSpec{Plan: p, OnRows: func(rows []graph.VertexID, width int) {
		// One copy and one lock per batch: each embedding is fn's own, cut
		// to its width so that an append to one cannot reach the next.
		own := slices.Clone(rows)
		mu.Lock()
		defer mu.Unlock()
		for ; len(own) > 0; own = own[width:] {
			fn(Embedding(own[:width:width]))
		}
	}})
	if err != nil {
		return nil, err
	}
	return publicResult(res), nil
}

// CountInMemory counts occurrences of q in an in-memory edge list with the
// reference brute-force enumerator — handy for validating small graphs
// without building a database.
func CountInMemory(n int, edges [][2]VertexID, q *Query) (uint64, error) {
	g, err := graph.NewGraph(n, edges)
	if err != nil {
		return 0, err
	}
	return graph.CountOccurrences(g, q), nil
}
