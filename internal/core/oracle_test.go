package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/delta"
	"dualsim/internal/faultdb"
	"dualsim/internal/gen"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/oracletest"
	"dualsim/internal/plan"
	"dualsim/internal/rbi"
	"dualsim/internal/sharedscan"
	"dualsim/internal/storage"
)

// The differential oracle. DUALSIM counts each embedding exactly once, by the
// level-1 window holding its first matching-order position, so neither the
// count nor the set of rows may move when the buffer, the window chopping,
// the page layout, the encoding, the thread count, a kill and resume, a
// shared sweep, a live-ingest overlay or a fault schedule changes. Each seed
// draws one whole execution configuration and checks it against brute force
// on the (mutated) graph, and every run against what its result, its
// registry, its trace and its pins must say.

// Execution modes of a draw.
const (
	solo  = "solo"  // one run on one engine
	kill  = "kill"  // stopped at checkpoint killAt (or inside a pass), resumed on a fresh engine
	rider = "rider" // a rider of sharedscan.Scheduler.Run beside companions
)

// Fault schedules of a draw. The first three are transient, absorbed by the
// read retry budget.
const (
	pages     = "transient-pages" // a few pages fail their first reads
	storm     = "storm"           // a seeded share of all reads fails
	torn      = "torn"            // two pages read torn once, healed by the CRC re-read
	permanent = "permanent"       // device loss after faultAt reads; healed, then resumed
)

// Typed read errors of a draw's last run: each must reach the caller typed,
// after exactly the reads its retry budget allows, and leave the engine to
// count exactly once the device heals.
const (
	exhausted = "exhausted" // a page that fails transiently for good outlives its retries
	corrupt   = "corrupt"   // a page whose checksum never matches outlives its re-reads
)

// errDeviceLoss is the permanent fault: not transient, so never retried.
var errDeviceLoss = errors.New("oracle: device lost")

// draw is one execution configuration.
type draw struct {
	seed     int64
	kind     string // how g was generated
	g        *graph.Graph
	q        *graph.Query
	compress bool
	pageSize int
	reorder  bool // degree-reordered build; overlay draws keep file IDs (SkipReorder)
	threads  int
	// frames is the engine's buffer; when 0 it is resolved from frameFrac
	// (see oracle.resolve), so the resident regime is drawn too.
	frames    int
	frameFrac float64
	mode      string
	// killAt is the checkpoint a kill draw stops at; resumeFrac resolves
	// the frames of the fresh engine a killed run, or a faulted rider,
	// resumes on (a faulted solo run resumes on its own engine).
	killAt     int
	resumeFrac float64
	companions []*graph.Query // rider draws; a nil entry rides the rider's own plan
	joinAfter  int            // rider draws: board after a companion's checkpoint joinAfter (0: at once)
	cancelOne  bool           // rider draws: the first companion cancels at its first checkpoint
	ingest     bool           // the run carries a delta.Store snapshot
	batches    int            // mixed insert/delete batches applied to it; 0 leaves it empty
	fault      string         // "" or one of the fault schedules
	faultAt    int64          // permanent: reads served before the device is lost
	rows       bool           // the row hook is on
	repeat     bool           // run the query again on the same engine afterwards
	cover      rbi.CoverMode  // the plan's red set: MCVC, MVC or every vertex
	worst      bool           // the plan's matching order maximizes Cartesian products
	equal      bool           // the engine splits its buffer equally among levels
	six        *graph.Query   // a random 6-vertex query run on the same draw after q
	misdirect  bool           // a last run reads another page's valid image for one page
	killPass   bool           // kill draws: stop at the killAt-th read inside a last-level pass instead
	killSpan   bool           // killPass draws: stop at the pass's read of the widest multi-page vertex's last page instead
	killErr    error          // kill draws: the stopped context's error, a cancel or a passed deadline
	boundary   string         // a finished solo run resumes again from its "first", "middle" or "last" checkpoint
	budget     string         // "floor": frames for one maximal vertex per level, "below": one short is refused first; "threshold": see check
	typed      string         // "" or a typed read error of one more run, healed and run again on its engine
	precancel  error          // a first run on a context already ended with this error reads nothing
	trace      bool           // engines trace into the oracle and print progress
	latency    time.Duration  // simulated device time per page
	ioWorkers  int            // the engines' I/O workers (0: the default)
}

func (d draw) String() string {
	comp := make([]string, len(d.companions))
	for i, q := range d.companions {
		comp[i] = "same-plan"
		if q != nil {
			comp[i] = q.Name()
		}
	}
	return fmt.Sprintf("seed=%d graph=%s(n=%d m=%d) query=%s%v compress=%v page=%d reorder=%v threads=%d "+
		"frames=%d/%.2f mode=%s killAt=%d resume=%.2f companions=%v joinAfter=%d cancelOne=%v "+
		"ingest=%v/%d fault=%q@%d rows=%v repeat=%v cover=%v worst=%v equal=%v misdirect=%v "+
		"killPass=%v/%v killErr=%v boundary=%q budget=%q typed=%q precancel=%v trace=%v latency=%v ioWorkers=%d",
		d.seed, d.kind, d.g.NumVertices(), d.g.NumEdges(), d.q.Name(), d.q.Edges(), d.compress, d.pageSize,
		d.reorder, d.threads, d.frames, d.frameFrac, d.mode, d.killAt, d.resumeFrac, comp, d.joinAfter,
		d.cancelOne, d.ingest, d.batches, d.fault, d.faultAt, d.rows, d.repeat, d.cover, d.worst, d.equal, d.misdirect,
		d.killPass, d.killSpan, d.killErr, d.boundary, d.budget, d.typed, d.precancel, d.trace, d.latency, d.ioWorkers)
}

// maxEmbeddings bounds a draw's brute-force work: a query with more
// embeddings than this is redrawn.
const maxEmbeddings = 100_000

// drawConfig draws seed's configuration.
func drawConfig(seed int64) draw {
	rng := rand.New(rand.NewSource(seed))
	d := draw{seed: seed}
	n := 60 + rng.Intn(400)
	switch k := rng.Intn(10); {
	case k < 4:
		d.kind, d.g = "random", randomGraph(rng, n, n*(2+rng.Intn(5)))
	case k < 6:
		d.kind, d.g = "hubs", gen.PlantedHubs(n, 1+rng.Intn(6), 10+rng.Intn(50), rng.Int63())
	case k < 7:
		d.kind, d.g = "bipartite", gen.Bipartite(n/2, n-n/2, n*(2+rng.Intn(3)), rng.Int63())
	case k < 9:
		d.kind, d.g = "chunglu", gen.ChungLu(n, n*(2+rng.Intn(4)), 2.1+rng.Float64(), rng.Int63())
	default:
		n = 1 + rng.Intn(12)
		d.kind, d.g = "tiny", randomGraph(rng, n, rng.Intn(3*n))
	}
	for tries := 0; d.q == nil || tries < 8 && exceeds(d.g, d.q); tries++ {
		if qs := graph.PaperQueries(); rng.Intn(3) > 0 {
			d.q = qs[rng.Intn(len(qs))]
		} else {
			d.q = randomConnectedQuery(rng, 2+rng.Intn(4))
		}
	}
	d.compress = rng.Intn(2) == 0
	d.pageSize = []int{64, 64, 128, 128, 128, 256, 256, 512, 1024, 4096}[rng.Intn(10)]
	d.threads = 1 + rng.Intn(4)
	// Squared, so most draws chop the graph into many windows and about one
	// in eight holds all of it (the resident regime).
	d.frameFrac, d.resumeFrac = 1.3*sq(rng.Float64()), 1.3*sq(rng.Float64())
	// The discrete dimensions are striped over the seed, so every short run
	// of seeds covers each mode and fault schedule.
	d.mode = []string{solo, kill, rider}[seed%3]
	switch (seed / 3) % 4 {
	case 1:
		d.fault = []string{pages, storm, torn}[rng.Intn(3)]
	case 3:
		d.fault, d.faultAt = permanent, int64(rng.Intn(40))
	}
	d.ingest = seed%5 < 2
	if d.ingest {
		d.batches = rng.Intn(9)
	}
	d.reorder = !d.ingest && rng.Intn(4) > 0
	d.rows = seed%2 == 0 || rng.Intn(2) == 0
	d.repeat = rng.Intn(4) == 0
	switch d.mode {
	case kill:
		d.killAt = 1 + rng.Intn(3)
	case rider:
		for i := rng.Intn(3); i > 0; i-- {
			qs := append(graph.PaperQueries(), nil, nil)
			d.companions = append(d.companions, qs[rng.Intn(len(qs))])
		}
		if len(d.companions) > 0 {
			d.joinAfter, d.cancelOne = rng.Intn(3), rng.Intn(3) == 0
		}
		d.frameFrac = 0.4 + rng.Float64()
	}
	// Drawn last, so every dimension above keeps its seed's value. One draw
	// in three plans or allocates unlike the server: an MVC or all-red plan,
	// the worst matching order or the equal buffer split. One in six runs a
	// random 6-vertex query after its own.
	switch rng.Intn(12) {
	case 0:
		d.cover = rbi.MVC
	case 1:
		d.cover = rbi.AllRed
	case 2:
		d.worst = true
	case 3:
		d.equal = true
	}
	if q := randomConnectedQuery(rng, 6); rng.Intn(6) == 0 && !exceeds(d.g, q) {
		d.six = q
	}
	// Each drawn after every dimension before it, so those keep their
	// seed's values.
	d.misdirect = rng.Intn(4) == 0
	d.killPass, d.killErr = rng.Intn(2) == 0, []error{context.Canceled, context.DeadlineExceeded}[rng.Intn(2)]
	if d.mode == kill && d.killPass {
		d.frameFrac /= 4 // a pass whose pages the pool does not hold reads them
	}
	d.boundary = []string{"", "first", "middle", "last"}[rng.Intn(4)]
	d.budget = []string{"", "", "floor", "below", "threshold"}[rng.Intn(5)]
	if d.budget == "floor" || d.budget == "below" {
		// The span floor lies above the engine's floor of 2 × threads + 8
		// frames only where a hub spans many pages: one thread on 64-byte
		// pages of a graph with hubs of 60–100 neighbours.
		if g := gen.PlantedHubs(100+rng.Intn(100), 1+rng.Intn(2), 60+rng.Intn(40), rng.Int63()); exceeds(g, d.q) {
			d.budget = ""
		} else {
			d.kind, d.g, d.pageSize, d.threads, d.six = "hubs", g, 64, 1, nil
		}
	}
	d.typed = []string{"", "", exhausted, corrupt}[rng.Intn(4)]
	d.precancel = []error{nil, nil, context.Canceled, context.DeadlineExceeded}[rng.Intn(4)]
	d.trace = rng.Intn(3) == 0
	if rng.Intn(3) == 0 {
		d.latency = time.Duration(2+rng.Intn(9)) * time.Microsecond
	}
	d.ioWorkers = 1 + rng.Intn(4)
	d.killSpan = seed%4 < 2 // striped, as the modes are: kill draws are few
	return d
}

func sq(x float64) float64 { return x * x }

// exceeds reports whether q has more than maxEmbeddings embeddings in g.
func exceeds(g *graph.Graph, q *graph.Query) bool {
	n := 0
	graph.BruteForceEnumerate(g, q, graph.SymmetryBreak(q), func([]graph.VertexID) bool {
		n++
		return n <= maxEmbeddings
	})
	return n > maxEmbeddings
}

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([][2]graph.VertexID, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]graph.VertexID{graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))})
	}
	return graph.MustNewGraph(n, edges)
}

// randomConnectedQuery samples a connected simple query on n vertices: a
// random spanning tree plus random extra edges.
func randomConnectedQuery(rng *rand.Rand, n int) *graph.Query {
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{rng.Intn(v), v})
	}
	for i := rng.Intn(n); i > 0; i-- {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	return graph.MustNewQuery("rand", n, edges)
}

// mutate applies batches of mixed inserts and deletes to st and returns the
// graph they make of g.
func mutate(t *testing.T, st *delta.Store, g *graph.Graph, rng *rand.Rand, batches int) *graph.Graph {
	t.Helper()
	n := g.NumVertices()
	edges := map[[2]graph.VertexID]bool{}
	for _, e := range g.EdgeList() {
		edges[[2]graph.VertexID{min(e[0], e[1]), max(e[0], e[1])}] = true
	}
	// The first batch deletes every edge of one vertex: its merged list is
	// empty, and its on-disk record must not show through.
	if u := graph.VertexID(rng.Intn(max(n, 1))); batches > 0 && len(g.Adj(u)) > 0 {
		var ops []delta.Op
		for _, w := range g.Adj(u) {
			ops = append(ops, delta.Op{U: min(u, w), V: max(u, w)})
			edges[[2]graph.VertexID{min(u, w), max(u, w)}] = false
		}
		if _, err := st.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < batches && n > 1; b++ {
		ops := make([]delta.Op, 1+rng.Intn(6))
		for i := range ops {
			u := graph.VertexID(rng.Intn(n))
			w := graph.VertexID((int(u) + 1 + rng.Intn(n-1)) % n)
			e := [2]graph.VertexID{min(u, w), max(u, w)}
			ops[i] = delta.Op{Insert: rng.Intn(2) == 0, U: e[0], V: e[1]}
			edges[e] = ops[i].Insert
		}
		if _, err := st.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	list := make([][2]graph.VertexID, 0, len(edges))
	for e, ok := range edges {
		if ok {
			list = append(list, e)
		}
	}
	return graph.MustNewGraph(n, list)
}

func rowKey(row []graph.VertexID) string {
	b := make([]byte, 0, 4*len(row))
	for _, v := range row {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return string(b)
}

func mustPlan(t *testing.T, q *graph.Query) *plan.Plan {
	t.Helper()
	p, err := plan.Prepare(q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stopper is a context the oracle ends itself, with the error it chooses: a
// kill reaches the engine as a cancel or as a deadline that passed.
type stopper struct {
	context.Context
	done chan struct{}
	once sync.Once
	err  atomic.Pointer[error]
}

func newStopper() *stopper {
	return &stopper{Context: context.Background(), done: make(chan struct{})}
}

func (s *stopper) Done() <-chan struct{} { return s.done }

func (s *stopper) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *stopper) stop(err error) {
	s.once.Do(func() {
		s.err.Store(&err)
		close(s.done)
	})
}

// tracer is the draws' in-memory tracer: it keeps the events since its last
// take and knows whether a last-level pass (a window of level k) is open.
type tracer struct {
	k    int
	mu   sync.Mutex
	evs  []obs.Event
	pass atomic.Bool
}

func (tr *tracer) Emit(e obs.Event) {
	tr.mu.Lock()
	tr.evs = append(tr.evs, e)
	tr.mu.Unlock()
	if tr.k > 1 && e.Level == tr.k {
		switch e.Event {
		case "window_open":
			tr.pass.Store(true)
		case "window_close":
			tr.pass.Store(false)
		}
	}
}

func (tr *tracer) take() []obs.Event {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	evs := tr.evs
	tr.evs = nil
	tr.pass.Store(false)
	return evs
}

// syncBuffer is the engines' progress writer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) take() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.buf.String()
	b.buf.Reset()
	return s
}

// recorder is a run's row hook and checkpoint observer. It checks that
// checkpoints advance one window at a time, that the rows handed over before
// each are exactly the embeddings whose first position lies below its
// cursor, and that the engine refuses a second run while this one is in
// flight; it stops the run at checkpoint killAt.
type recorder struct {
	o      *oracle
	e      *core.Engine
	resume *core.Checkpoint
	killAt int
	stop   func()

	mu   sync.Mutex
	rows []string
	cps  []core.Checkpoint
	mark []int // len(rows) at each checkpoint
}

func (r *recorder) spec(base core.RunSpec) core.RunSpec {
	if r.o.d.rows {
		base.OnRows = func(rows []graph.VertexID, width int) {
			r.mu.Lock()
			defer r.mu.Unlock()
			for ; len(rows) > 0; rows = rows[width:] {
				r.rows = append(r.rows, rowKey(rows[:width]))
			}
		}
	}
	base.Resume = r.resume
	base.OnCheckpoint = func(cp core.Checkpoint) {
		r.mu.Lock()
		defer r.mu.Unlock()
		o, start := r.o, core.Checkpoint{K: r.o.p.K}
		if r.resume != nil {
			start = *r.resume
		}
		prev, since := start, 0
		if n := len(r.cps); n > 0 {
			prev, since = r.cps[n-1], r.mark[n-1]
		}
		if cp.K != o.p.K || cp.Cursor <= prev.Cursor || cp.Windows != prev.Windows+1 {
			o.t.Errorf("%v: checkpoint %+v after %+v: want K=%d, a larger cursor, one more window", o.d, cp, prev, o.p.K)
		}
		if o.wantRows != nil {
			for _, k := range r.rows[since:] {
				if v0, ok := o.wantRows[k]; ok && (int(v0) < prev.Cursor || int(v0) >= cp.Cursor) {
					o.t.Errorf("%v: row %v of first vertex %d handed over in the window [%d, %d)", o.d, []byte(k), v0, prev.Cursor, cp.Cursor)
				}
			}
			if want := o.below(cp.Cursor) - o.below(start.Cursor); len(r.rows) != want {
				o.t.Errorf("%v: %d rows handed over by checkpoint %+v, %d embeddings lie in [%d, %d)",
					o.d, len(r.rows), cp, want, start.Cursor, cp.Cursor)
			}
		}
		if len(r.cps) == 0 && r.e != nil {
			if _, err := r.e.RunSpecContext(context.Background(), core.RunSpec{Plan: o.p}); !errors.Is(err, core.ErrEngineBusy) {
				o.t.Errorf("%v: a second run during a run: %v, want ErrEngineBusy", o.d, err)
			}
			o.cov.Add("busy refused")
		}
		r.cps, r.mark = append(r.cps, cp), append(r.mark, len(r.rows))
		if len(r.cps) == r.killAt && r.stop != nil {
			r.stop()
		}
	}
	return base
}

// at is checkpoint i and the rows handed over before it; nil when i < 0.
func (r *recorder) at(i int) (*core.Checkpoint, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 {
		return nil, nil
	}
	cp := r.cps[i]
	return &cp, slices.Clone(r.rows[:r.mark[i]])
}

// oracle is one draw's fixture: the database, its fault wrapper, the plan
// and the brute-force answer, and what the draw's runs booked.
type oracle struct {
	t         *testing.T
	d         draw
	cov       *oracletest.Coverage
	db        *storage.DB
	fdb       *faultdb.DB
	snap      *delta.Snapshot
	p         *plan.Plan
	base      *graph.Graph // the file's graph; companions see it without the overlay
	wantCount uint64
	// wantRows maps each brute-force row to the vertex at its first
	// matching-order position (nil unless the row hook is on); firsts holds
	// those vertices in order.
	wantRows map[string]graph.VertexID
	firsts   []graph.VertexID
	pages    int
	maxSpan  int
	engines  []*core.Engine
	used     map[*core.Engine]bool // engines that ran: their pools are warm
	reg      *obs.Registry         // every engine's and the scheduler's
	booked   uint64                // the pages every scope of the draw read
	trace    *tracer
	progress syncBuffer
	spanEnd  storage.PageID                       // the last page of the widest multi-page vertex
	onRead   atomic.Pointer[func(storage.PageID)] // a kill's hook on every device read
}

func (o *oracle) fatalf(format string, args ...any) {
	o.t.Helper()
	o.t.Fatalf("%v:\n  "+format, append([]any{o.d}, args...)...)
}

func (o *oracle) transient() bool {
	return o.d.fault == pages || o.d.fault == storm || o.d.fault == torn
}

// below counts the embeddings whose first position lies below vertex c.
func (o *oracle) below(c int) int {
	n, _ := slices.BinarySearch(o.firsts, graph.VertexID(c))
	return n
}

// resolve maps a frame fraction onto frames: 0 is the engine floor (one
// maximal vertex per level, and 2 × threads + 8), 1 the page count plus one
// maximal vertex per level, past the resident threshold.
func (o *oracle) resolve(frac float64) int {
	floor := max(2*o.d.threads+8, o.p.K*o.maxSpan)
	return floor + int(frac*float64(max(0, o.pages+o.p.K*o.maxSpan-floor)))
}

// engine opens an engine of the draw with frames; retry, when set, replaces
// the retry budget transient draws give every engine.
func (o *oracle) engine(frames int, retry *storage.RetryPolicy) *core.Engine {
	o.t.Helper()
	opts := core.Options{Threads: o.d.threads, BufferFrames: frames, EqualAllocation: o.d.equal, Retry: retry,
		IOWorkers: o.d.ioWorkers, PerPageLatency: o.d.latency, Metrics: o.reg}
	if retry == nil && o.transient() {
		opts.Retry = &storage.RetryPolicy{MaxRetries: 40, CRCRetries: 1, Sleep: func(time.Duration) {}}
	}
	if o.d.trace || o.d.killPass && o.d.mode == kill {
		opts.Tracer = o.trace
	}
	if o.d.trace {
		opts.ProgressInterval, opts.ProgressWriter = time.Millisecond, &o.progress
	}
	e, err := core.NewEngine(o.fdb, opts)
	if err != nil {
		o.fatalf("NewEngine(%d frames): %v", frames, err)
	}
	o.t.Cleanup(e.Close)
	if frames >= 2*o.d.threads+8 && e.BufferFrames() != frames {
		o.fatalf("the engine raised %d frames to %d: the pool must hold exactly the buffer asked for", frames, e.BufferFrames())
	}
	o.engines = append(o.engines, e)
	return e
}

// exec runs spec on e under a scope of its own, whose pages it books, and
// holds the run to what every run must satisfy: nothing left pinned and, on
// success, checkResult and — for a fresh run — checkFresh.
func (o *oracle) exec(e *core.Engine, ctx context.Context, spec core.RunSpec, rec *recorder) (*core.Result, error) {
	o.t.Helper()
	spec.Scope = obs.NewScope("")
	before, cold := o.reg.Snapshot().Counters, !o.used[e]
	o.trace.take()
	o.progress.take()
	res, err := e.RunSpecContext(ctx, spec)
	read := spec.Scope.PagesRead.Load()
	o.booked += read
	o.used[e] = o.used[e] || read > 0
	if pinned := e.PinnedFrames(); pinned != 0 {
		o.fatalf("%d frames still pinned after a run (err %v)", pinned, err)
	}
	if err != nil {
		return nil, err
	}
	o.checkResult(e, res, rec)
	if spec.Resume == nil {
		o.checkFresh(e, res, rec, before, cold)
	}
	return res, nil
}

// checkResult holds what every finished run must satisfy; rec, when
// non-nil, observed the run's checkpoints.
func (o *oracle) checkResult(e *core.Engine, res *core.Result, rec *recorder) {
	o.t.Helper()
	if res.Count != o.wantCount || res.Internal+res.External != res.Count {
		o.fatalf("count %d (internal %d + external %d), brute force %d; windows %v",
			res.Count, res.Internal, res.External, o.wantCount, res.WindowsPerLevel)
	}
	if rec == nil {
		return
	}
	cp, _ := rec.at(len(rec.cps) - 1)
	if cp != nil && (cp.Cursor != o.db.NumVertices() || cp.Internal+cp.External != res.Count) {
		o.fatalf("final checkpoint %+v does not close the run (cursor %d, total %d)", *cp, o.db.NumVertices(), res.Count)
	}
	want := res.Level1Windows
	if rec.resume != nil {
		want -= rec.resume.Windows
	}
	if o.d.mode != rider && len(rec.cps) != want {
		o.fatalf("%d checkpoints over %d level-1 windows (resumed from %+v)", len(rec.cps), res.Level1Windows, rec.resume)
	}
}

// checkFresh holds a run from the first window to what its result, the
// registry it moved from before and its trace must say: the level-1 windows
// are resident exactly when the graph fits beside one maximal vertex per
// deeper level, the last level is one pass per window above it, every page
// is read at least once on a cold pool, and the registry moved by the run's
// profile.
func (o *oracle) checkFresh(e *core.Engine, res *core.Result, rec *recorder, before map[string]uint64, cold bool) {
	o.t.Helper()
	k, w, pr := o.p.K, res.WindowsPerLevel, res.Profile
	deep := 0
	for _, n := range w[min(1, len(w)):] {
		deep += n
	}
	resident := !o.d.equal && e.BufferFrames()-o.pages >= (k-1)*o.maxSpan
	switch {
	case len(w) != k || w[0] != res.Level1Windows:
		o.fatalf("windows per level %v for %d levels and %d level-1 windows", w, k, res.Level1Windows)
	case resident:
		o.cov.Add("resident")
		if res.Level1Windows != 1 || res.External != 0 || deep != 0 || cold && pr.PagesRead != uint64(o.pages) {
			o.fatalf("resident run: windows %v, %d external, %d reads of %d pages; want one level-1 window, nothing deeper, each page once",
				w, res.External, pr.PagesRead, o.pages)
		}
	case !o.d.equal && res.Level1Windows < 2, k > 1 && w[k-1] != w[k-2]:
		o.fatalf("windows per level %v below the resident threshold: want two level-1 windows or more, one pass per window above the last level", w)
	case res.Level1Windows > 1:
		o.cov.Add("multi-window")
	}
	if cold && pr.PagesRead < uint64(o.pages) || pr.LogicalReads < pr.PagesRead || res.ExecTime <= 0 ||
		time.Duration(pr.IOWaitNS) > res.ExecTime || o.d.latency > 0 && cold && pr.IOWaitNS == 0 {
		o.fatalf("profile %+v of a run of %v on %d pages (cold %v)", *pr, res.ExecTime, o.pages, cold)
	}
	after, sum := res.Metrics.Counters, uint64(0)
	for _, n := range w {
		sum += uint64(n)
	}
	cps := 0
	if rec != nil {
		cps = len(rec.cps)
	}
	for name, want := range map[string]uint64{"runs": 1, "embeddings": res.Count, "windows_level1": uint64(res.Level1Windows),
		"windows": sum, "pages_read": pr.PagesRead, "logical_reads": pr.LogicalReads, "io_wait_nanos": uint64(pr.IOWaitNS),
		"checkpoints_taken": uint64(cps), "steal_splits": pr.StealSplits} {
		if got := after["dualsim_"+name+"_total"] - before["dualsim_"+name+"_total"]; got != want {
			o.fatalf("dualsim_%s_total moved by %d over the run, want %d", name, got, want)
		}
	}
	if o.d.compress && o.base.NumEdges() > 0 {
		if after["dualsim_compressed_records_total"] == before["dualsim_compressed_records_total"] {
			o.fatalf("a run on a compressed file booked no compressed records")
		}
		o.cov.Add("compressed records booked")
	}
	for kernel, n := range map[string]uint64{"linear": pr.IntersectLinear, "gallop": pr.IntersectGallop, "probe": pr.IntersectProbe} {
		if n > 0 {
			o.cov.Add("kernel:" + kernel)
		}
	}
	if pr.StealSplits > 0 {
		o.cov.Add("steal split")
		if o.d.kind == "hubs" {
			o.cov.Add("steal split on hubs")
		}
	}
	if res.Internal > 0 && res.External > 0 {
		o.cov.Add("internal and external")
	}
	if cold && pr.PagesRead > uint64(o.pages) {
		o.cov.Add("pages read again")
	}
	if o.d.trace {
		o.checkTrace(o.trace.take(), res)
		if out := o.progress.take(); !strings.Contains(out, "dualsim: windows ") || !strings.Contains(out, "pages read ") {
			o.fatalf("progress output %q", out)
		}
	}
}

// checkTrace holds a fresh run's trace to its result: run_start first and
// run_end with the count last, every window opened, pinned and closed once
// in that order, as many per level as the result counts, level 1's cutting
// the vertex range back to back, one internal_enum per level-1 window and
// one external_enum per pass.
func (o *oracle) checkTrace(evs []obs.Event, res *core.Result) {
	o.t.Helper()
	o.cov.Add("traced")
	if len(evs) < 2 || evs[0].Event != "run_start" || evs[len(evs)-1].Event != "run_end" || evs[len(evs)-1].Count != res.Count {
		o.fatalf("trace of %d events does not run from run_start to a run_end counting %d", len(evs), res.Count)
	}
	type window struct{ level, ord int }
	life, enums := map[window]string{}, map[string]int{}
	perLevel := make([]int, o.p.K)
	next := uint64(0)
	for _, e := range evs {
		switch e.Event {
		case "window_open", "window_pinned", "window_close":
			life[window{e.Level, e.Window}] += e.Event[len("window_"):] + " "
			if e.Event == "window_open" && e.Level == 1 {
				if e.Lo != next || e.Hi < e.Lo {
					o.fatalf("level-1 window [%d, %d] after vertex %d", e.Lo, e.Hi, next)
				}
				next = e.Hi + 1
			}
		case "internal_enum", "external_enum":
			enums[e.Event]++
		}
	}
	for w, seq := range life {
		if seq != "open pinned close " || w.level < 1 || w.level > o.p.K {
			o.fatalf("level %d window %d traced %q", w.level, w.ord, seq)
		}
		perLevel[w.level-1]++
	}
	passes := 0
	if o.p.K > 1 {
		passes = res.WindowsPerLevel[o.p.K-1]
	}
	if !slices.Equal(perLevel, res.WindowsPerLevel) || next != uint64(o.db.NumVertices()) ||
		enums["internal_enum"] != res.Level1Windows || enums["external_enum"] != passes {
		o.fatalf("trace: windows per level %v up to vertex %d, %v; the result says %v", perLevel, next, enums, res.WindowsPerLevel)
	}
}

// checkRows requires every row to be a brute-force embedding handed over
// once and, when complete, every embedding to be among them.
func (o *oracle) checkRows(rows []string, complete bool) {
	o.t.Helper()
	if o.wantRows == nil {
		return
	}
	seen := make(map[string]bool, len(rows))
	for _, k := range rows {
		if _, ok := o.wantRows[k]; !ok || seen[k] {
			o.fatalf("row %v handed over twice or not an embedding (seen before: %v)", []byte(k), seen[k])
		}
		seen[k] = true
	}
	if complete && len(seen) != len(o.wantRows) {
		o.fatalf("%d distinct rows handed over, brute force has %d", len(seen), len(o.wantRows))
	}
}

// resume finishes a run from checkpoint cp (a rerun when nil) on e with the
// device healed: the rows handed over before cp and the resumed run's must
// be the brute-force set, each once. Checkpoints that fit neither the plan
// nor the file are refused first, and a resume from the last checkpoint has
// no window left: it reads nothing.
func (o *oracle) resume(e *core.Engine, cp *core.Checkpoint, prefix []string) {
	o.t.Helper()
	o.fdb.Heal()
	o.checkRows(prefix, false)
	if cp != nil {
		n := o.db.NumVertices()
		for _, bad := range []core.Checkpoint{{K: cp.K + 1, Cursor: cp.Cursor}, {K: cp.K, Cursor: -1},
			{K: cp.K, Cursor: n + 1}, {K: cp.K, Cursor: cp.Cursor, Windows: -1}} {
			if _, err := e.RunSpecContext(context.Background(), core.RunSpec{Plan: o.p, Resume: &bad}); !errors.Is(err, core.ErrBadCheckpoint) {
				o.fatalf("resume from %+v: %v, want ErrBadCheckpoint", bad, err)
			}
		}
		o.cov.Add("bad checkpoint refused")
	}
	rec := &recorder{o: o, e: e, resume: cp}
	res, err := o.exec(e, context.Background(), rec.spec(core.RunSpec{Plan: o.p, Overlay: o.snap}), rec)
	if err != nil {
		o.fatalf("resume from %+v: %v", cp, err)
	}
	if res.Resumed != (cp != nil) {
		o.fatalf("Resumed = %v, resumed from %+v", res.Resumed, cp)
	}
	if cp != nil && cp.Cursor == o.db.NumVertices() && (res.Profile.PagesRead != 0 || len(rec.cps) != 0) {
		o.fatalf("resumed from the last checkpoint %+v: %d pages read, %d checkpoints", *cp, res.Profile.PagesRead, len(rec.cps))
	}
	o.checkRows(append(prefix, rec.rows...), true)
}

// runSolo runs the draw on one engine: solo, kill and permanent-fault draws,
// and riders the scheduler refused.
func (o *oracle) runSolo(frames int) {
	o.t.Helper()
	e := o.engine(frames, nil)
	spec := core.RunSpec{Plan: o.p, Overlay: o.snap}
	if want := o.d.precancel; want != nil {
		ctx, reads := newStopper(), o.fdb.Reads()
		ctx.stop(want)
		if _, err := o.exec(e, ctx, spec, nil); !errors.Is(err, want) || o.fdb.Reads() != reads {
			o.fatalf("a run on a context ended with %v: %v after %d reads", want, err, o.fdb.Reads()-reads)
		}
		o.cov.Add(fmt.Sprintf("pre-cancelled: %v", want))
	}
	ctx := newStopper()
	rec := &recorder{o: o, e: e}
	if o.d.mode == kill {
		stop := func() { ctx.stop(o.d.killErr) }
		if o.d.killPass {
			// Aimed at a multi-page vertex's last chunk, the cancel lands
			// while the chunks before it are pinned and the vertex unrooted.
			span, at := o.d.killSpan && o.maxSpan > 1, int64(o.d.killAt)
			if span {
				at = 1
			}
			var reads atomic.Int64
			hook := func(pid storage.PageID) {
				if o.trace.pass.Load() && (!span || pid == o.spanEnd) && reads.Add(1) == at {
					o.cov.Add("killed inside a pass")
					if span {
						o.cov.Add("killed on a multi-page vertex's last page")
					}
					stop()
				}
			}
			o.onRead.Store(&hook)
		} else {
			rec.killAt, rec.stop = o.d.killAt, stop
		}
	}
	res, err := o.exec(e, ctx, rec.spec(spec), rec)
	o.onRead.Store(nil)
	switch {
	case err == nil:
		rec.mu.Lock()
		o.checkRows(rec.rows, true)
		rec.mu.Unlock()
		if i := map[string]int{"first": 0, "middle": len(rec.cps) / 2, "last": len(rec.cps) - 1}[o.d.boundary]; o.d.mode == solo &&
			o.d.boundary != "" && len(rec.cps) > 0 {
			cp, prefix := rec.at(i)
			o.resume(o.engine(o.resolve(o.d.resumeFrac), nil), cp, prefix)
			o.cov.Add("resumed from the " + o.d.boundary + " checkpoint")
		}
	case o.d.mode == kill && errors.Is(err, o.d.killErr),
		o.d.fault == permanent && errors.Is(err, errDeviceLoss):
		if o.d.mode == kill { // killed: resume on an engine with other frames
			other := o.resolve(o.d.resumeFrac)
			if other == e.BufferFrames() {
				other++
			}
			e = o.engine(other, nil)
			o.cov.Add(fmt.Sprintf("killed: %v", o.d.killErr))
		}
		rec.mu.Lock()
		o.checkRows(rec.rows, false)
		rec.mu.Unlock()
		cp, prefix := rec.at(len(rec.cps) - 1)
		o.resume(e, cp, prefix)
		o.cov.Add("resumed:" + o.d.mode + "/" + o.d.fault)
	default:
		o.fatalf("run: %v", err)
	}
	if o.d.repeat {
		o.fdb.Heal()
		rows := len(rec.rows)
		again, err := o.exec(e, context.Background(), spec, nil)
		if err != nil {
			o.fatalf("repeated run: %v", err)
		}
		if len(rec.rows) != rows {
			o.fatalf("the row hook of a finished run was handed %d rows by the next", len(rec.rows)-rows)
		}
		if res != nil && o.d.mode == solo {
			if !slices.Equal(again.WindowsPerLevel, res.WindowsPerLevel) {
				o.fatalf("windows per level %v, then %v on the same engine", res.WindowsPerLevel, again.WindowsPerLevel)
			}
			o.cov.Add("repeated: the same windows")
		}
	}
}

// runRider rides the draw on sharedscan.Scheduler.Run beside its companions
// (the serving path); a refused rider runs solo, as the server does.
func (o *oracle) runRider(frames int) {
	o.t.Helper()
	e := o.engine(frames, nil)
	// A sweep refuses what its riders cannot share, and holds the engine.
	s, err := e.NewSweep(core.SweepOptions{MaxRiders: 2})
	if err != nil {
		o.fatalf("NewSweep: %v", err)
	}
	for _, spec := range []core.RunSpec{{Plan: o.p, Resume: &core.Checkpoint{K: o.p.K}}, {Plan: o.p, Overlay: o.snap}} {
		if _, err := s.NewRider(context.Background(), spec); spec.Resume != nil || o.snap != nil && !o.snap.Empty() {
			if !errors.Is(err, core.ErrRiderNotEligible) {
				o.fatalf("a rider resumed or with an overlay: %v, want ErrRiderNotEligible", err)
			}
		}
	}
	if _, err := e.NewSweep(core.SweepOptions{}); !errors.Is(err, core.ErrEngineBusy) {
		o.fatalf("a second sweep: %v, want ErrEngineBusy", err)
	}
	// Two riders match the first window and one leaves before the sweep
	// releases it: each books the window's shared pages once, the one that
	// left at its Close.
	var riders []*core.Rider
	for range 2 {
		if rd, err := s.NewRider(context.Background(), core.RunSpec{Plan: o.p}); err == nil {
			riders = append(riders, rd)
		}
	}
	if len(riders) == 2 && o.d.fault == "" {
		w, err := s.Load(context.Background(), 0, 0)
		if err != nil {
			o.fatalf("Load: %v", err)
		}
		// A deep pool too small to deal both riders fails their windows.
		err = errors.Join(riders[0].ProcessWindow(w), riders[1].ProcessWindow(w))
		pages, early := uint64(w.Pages()), riders[0].Close()
		read, released := s.Release(w)
		if o.booked += read; err == nil && early+released != 2*pages {
			o.fatalf("shared pages: an early Close %d + Release %d, want twice the window's %d", early, released, pages)
		} else if err == nil {
			o.cov.Add("rider closed before the release")
		}
	}
	for _, rd := range riders {
		rd.Close()
	}
	read, _ := s.Close()
	o.booked += read
	o.cov.Add("rider eligibility")

	sched := sharedscan.New(e, sharedscan.Options{MaxRiders: 1 + len(o.d.companions), Metrics: o.reg})
	defer sched.Close()
	type outcome struct {
		res   *core.Result
		err   error
		scope *obs.Scope
	}
	outs := make([]outcome, len(o.d.companions)+1)
	for i := range outs {
		outs[i].scope = obs.NewScope("")
	}
	before := o.reg.Snapshot().Counters
	// The rider boards at once, or after the companions' joinAfter-th
	// checkpoint: a late join.
	boarded := make(chan struct{})
	var once sync.Once
	board := func() { once.Do(func() { close(boarded) }) }
	var wg sync.WaitGroup
	for i, q := range o.d.companions {
		p := o.p
		if q != nil {
			p = mustPlan(o.t, q)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cps := 0
		spec := core.RunSpec{Plan: p, Scope: outs[i+1].scope, OnCheckpoint: func(core.Checkpoint) {
			if cps++; cps == o.d.joinAfter {
				board()
			}
			if o.d.cancelOne && i == 0 {
				cancel()
			}
		}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i+1].res, outs[i+1].err = sched.Run(ctx, spec)
			board()
		}()
	}
	if o.d.joinAfter == 0 || len(o.d.companions) == 0 {
		board()
	}
	<-boarded
	rec := &recorder{o: o, e: e}
	outs[0].res, outs[0].err = sched.Run(context.Background(),
		rec.spec(core.RunSpec{Plan: o.p, Overlay: o.snap, Scope: outs[0].scope}))
	wg.Wait()
	sched.Close()
	if pinned := e.PinnedFrames(); pinned != 0 {
		o.fatalf("%d frames still pinned after the cohort", pinned)
	}

	st := sched.Stats()
	o.booked, o.used[e] = o.booked+st.SweepPagesRead, true
	var booked, rode uint64
	for i, out := range outs {
		booked += out.scope.SharedPages.Load()
		if out.err == nil {
			rode++
			if out.scope.PagesRead.Load() != 0 || out.scope.SharedPages.Load() == 0 {
				o.fatalf("rider %d: scope charged %d physical reads and %d shared pages; the sweep owns the reads",
					i, out.scope.PagesRead.Load(), out.scope.SharedPages.Load())
			}
		}
		if i == 0 {
			continue
		}
		q := o.d.companions[i-1]
		if q == nil {
			q = o.d.q
		}
		switch {
		case out.err == nil:
			if want := graph.CountOccurrences(o.base, q); out.res.Count != want || out.res.Internal+out.res.External != want {
				o.fatalf("companion %s: count %d (%d + %d), brute force %d", q.Name(),
					out.res.Count, out.res.Internal, out.res.External, want)
			}
		case o.d.cancelOne && i == 1 && errors.Is(out.err, context.Canceled):
			o.cov.Add("cancelled companion")
		case errors.Is(out.err, sharedscan.ErrNotEligible):
		case o.d.fault == permanent && errors.Is(out.err, errDeviceLoss):
			o.cov.Add("faulted cohort")
		default:
			o.fatalf("companion %s: %v", q.Name(), out.err)
		}
	}
	if o.d.fault == "" {
		after := o.reg.Snapshot().Counters
		if st.ActiveRiders != 0 || st.RidersTotal < rode || rode > 0 && (st.Sweeps == 0 || st.SharedWindows == 0) {
			o.fatalf("cohort stats %+v after %d riders rode", st, rode)
		}
		if got := after["dualsim_shared_pages_total"] - before["dualsim_shared_pages_total"]; got != booked || st.SharedPages != booked {
			o.fatalf("dualsim_shared_pages_total moved by %d (stats %d), the riders booked %d", got, st.SharedPages, booked)
		}
		if got := after["dualsim_pages_read_total"] - before["dualsim_pages_read_total"]; st.SweepPagesRead != got {
			o.fatalf("sweep-owned reads %d, dualsim_pages_read_total moved by %d", st.SweepPagesRead, got)
		}
	}

	res, err := outs[0].res, outs[0].err
	switch {
	case err == nil:
		o.cov.Add("rode")
		if len(o.d.companions) > 0 {
			o.cov.Add("rode beside companions")
		}
		if o.snap != nil && !o.snap.Empty() {
			o.fatalf("an overlay spec rode the shared sweep")
		}
		o.checkResult(e, res, rec)
		rec.mu.Lock()
		o.checkRows(rec.rows, true)
		rec.mu.Unlock()
		// A rider that boarded at the sweep's first window takes a
		// checkpoint at each; one that boarded later has no cursor a solo
		// run could resume from, and takes none.
		switch len(rec.cps) {
		case res.Level1Windows:
			o.cov.Add("rider took checkpoints")
		case 0:
			o.cov.Add("late join")
		default:
			o.fatalf("a rider took %d checkpoints over %d level-1 windows", len(rec.cps), res.Level1Windows)
		}
		// The scheduler has released the engine: a solo run works on it again.
		if _, err = o.exec(e, context.Background(), core.RunSpec{Plan: o.p, Overlay: o.snap}, nil); err != nil {
			o.fatalf("solo run after the cohort: %v", err)
		}
	case errors.Is(err, sharedscan.ErrNotEligible) && len(rec.rows) == 0:
		o.cov.Add("refused rider")
		o.d.mode = solo
		o.runSolo(frames)
	case o.d.fault == permanent && errors.Is(err, errDeviceLoss):
		o.cov.Add("faulted cohort")
		cp, prefix := rec.at(len(rec.cps) - 1)
		o.resume(o.engine(o.resolve(o.d.resumeFrac), nil), cp, prefix)
	default:
		o.fatalf("rider: %v", err)
	}
}

// runMisdirected runs the draw once more with every read of a drawn page p
// served another page's valid image — a misdirected read, which no checksum
// sees: the run must fail as a permanent corruption of p, never count.
func (o *oracle) runMisdirected(rng *rand.Rand) {
	o.t.Helper()
	o.fdb.Heal()
	p := rng.Intn(o.pages)
	o.fdb.Misdirect(storage.PageID(p), storage.PageID((p+1+rng.Intn(o.pages-1))%o.pages))
	res, err := o.exec(o.engine(o.d.frames, nil), context.Background(), core.RunSpec{Plan: o.p, Overlay: o.snap}, nil)
	if ce, ok := storage.IsCorrupt(err); !ok || ce.Page != storage.PageID(p) || storage.IsTransient(err) {
		o.fatalf("page %d read as another page's image: result %+v, err %v; want a permanent corruption of page %d", p, res, err, p)
	}
	o.cov.Add("misdirected read")
}

// runTyped runs the draw once more on an engine with a small retry budget,
// with a drawn page failing for good: transiently (exhausted) or with a
// checksum that never matches (corrupt). The error must say which, after
// exactly the reads the budget allows per attempt at the page; once the
// device heals, the same engine counts exactly.
func (o *oracle) runTyped(rng *rand.Rand) {
	o.t.Helper()
	o.fdb.Heal()
	p := storage.PageID(rng.Intn(o.pages))
	policy := &storage.RetryPolicy{MaxRetries: 1 + rng.Intn(3), CRCRetries: rng.Intn(3), Sleep: func(time.Duration) {}}
	e := o.engine(o.d.frames, policy)
	per, reads := int64(policy.MaxRetries+1), o.fdb.PageReads(p)
	if o.d.typed == exhausted {
		o.fdb.TransientPages(1<<30, p)
	} else {
		o.fdb.BitFlip(p)
		per = int64(policy.CRCRetries + 1)
	}
	spec := core.RunSpec{Plan: o.p, Overlay: o.snap}
	_, err := o.exec(e, context.Background(), spec, nil)
	ce, isCorrupt := storage.IsCorrupt(err)
	switch n := o.fdb.PageReads(p) - reads; {
	case n == 0 || n%per != 0:
		o.fatalf("page %d read %d times under %+v: want a multiple of %d", p, n, *policy, per)
	case o.d.typed == exhausted && (!errors.Is(err, faultdb.ErrInjected) || !storage.IsTransient(err) ||
		!strings.Contains(fmt.Sprint(err), "retry budget exhausted") || e.RetryStats().Exhausted == 0):
		o.fatalf("page %d failing for good: %v (retry layer %+v), want the transient cause of an exhausted budget", p, err, e.RetryStats())
	case o.d.typed == corrupt && (!isCorrupt || ce.Page != p || ce.StoredCRC == ce.ComputedCRC || storage.IsTransient(err)):
		o.fatalf("page %d corrupt for good: %v, want a permanent corruption of it with its checksums", p, err)
	}
	o.fdb.Heal()
	if _, err := o.exec(e, context.Background(), spec, nil); err != nil {
		o.fatalf("after healing: %v", err)
	}
	o.cov.Add("typed:" + o.d.typed)
}

// check runs one draw and everything it must satisfy, counting what it
// reached into cov.
func check(t *testing.T, d draw, cov *oracletest.Coverage) {
	t.Helper()
	if d.cover == rbi.AllRed && d.q.NumVertices() > 3 && d.kind != "pinned" {
		d.cover = rbi.MVC // every vertex is a level of windows: w^K window tuples
	}
	p, err := plan.Prepare(d.q, plan.Options{CoverMode: d.cover, WorstOrder: d.worst})
	if err != nil {
		t.Fatalf("%v: prepare: %v", d, err)
	}
	o := &oracle{t: t, d: d, cov: cov, p: p, used: map[*core.Engine]bool{}, reg: obs.NewRegistry(), trace: &tracer{k: p.K}}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.db")
	if _, err := storage.BuildFromGraph(path, d.g, storage.BuildOptions{
		PageSize: d.pageSize, TempDir: dir, Compress: d.compress, SkipReorder: !d.reorder,
	}); err != nil {
		o.fatalf("build: %v", err)
	}
	db, err := storage.Open(path)
	if err != nil {
		o.fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	o.db, o.pages = db, db.NumPages()
	for v := 0; v < db.NumVertices(); v++ {
		first, last := db.SpanOf(graph.VertexID(v))
		if int(last-first)+1 >= o.maxSpan {
			o.maxSpan, o.spanEnd = int(last-first)+1, last
		}
	}
	o.base = d.g
	if d.reorder {
		o.base, _ = graph.ReorderByDegree(d.g)
	}
	mutated := o.base
	if d.ingest {
		st := delta.NewStore(db.NumVertices(), db.Epoch())
		mutated = mutate(t, st, o.base, rand.New(rand.NewSource(d.seed)), d.batches)
		o.snap = st.Snapshot()
		cov.Add(fmt.Sprintf("overlay empty=%v", o.snap.Empty()))
	}
	if d.rows {
		o.wantRows = map[string]graph.VertexID{}
		graph.BruteForceEnumerate(mutated, d.q, graph.SymmetryBreak(d.q), func(m []graph.VertexID) bool {
			// The first position holds the red vertex of rank
			// MatchingOrder[0]: positions are the red vertices' ranks.
			red := make([]graph.VertexID, 0, p.K)
			for _, u := range p.RBI.Red {
				red = append(red, m[u])
			}
			slices.Sort(red)
			o.wantRows[rowKey(m)] = red[p.MatchingOrder[0]]
			o.firsts = append(o.firsts, red[p.MatchingOrder[0]])
			return true
		})
		slices.Sort(o.firsts)
		o.wantCount = uint64(len(o.wantRows))
	} else {
		o.wantCount = graph.CountOccurrences(mutated, d.q)
	}

	o.fdb = faultdb.Wrap(db, faultdb.Options{Seed: d.seed, OnRead: func(_ int64, pid storage.PageID) {
		if f := o.onRead.Load(); f != nil {
			(*f)(pid)
		}
	}})
	rng := rand.New(rand.NewSource(^d.seed))
	switch d.fault {
	case pages:
		var ids []storage.PageID
		for i := 1 + rng.Intn(4); i > 0; i-- {
			ids = append(ids, storage.PageID(rng.Intn(o.pages)))
		}
		o.fdb.TransientPages(1+rng.Intn(3), ids...)
	case storm:
		o.fdb.FailRandom(0.05+0.25*rng.Float64(), nil)
	case torn:
		o.fdb.BitFlipOnce(storage.PageID(rng.Intn(o.pages)), storage.PageID(o.pages-1))
	case permanent:
		o.fdb.FailAfter(d.faultAt, errDeviceLoss)
	}
	// The budget dimension pins the frames at an edge: the span floor, one
	// maximal vertex per level, where the pool must hold exactly what it was
	// asked for; or the resident threshold, the page count plus one maximal
	// vertex per deeper level, one frame short of which a run first must
	// cut level 1 into windows.
	floor, threshold := o.p.K*o.maxSpan, o.pages+(o.p.K-1)*o.maxSpan
	if d.frames == 0 {
		o.d.frames = o.resolve(d.frameFrac)
		switch {
		case d.budget == "floor" && floor >= 2*d.threads+8:
			o.d.frames = floor
			cov.Add("budget at the span floor")
		case d.budget == "threshold" && threshold-1 >= max(floor, 2*d.threads+8) && !d.equal:
			o.d.frames = threshold
		}
	}
	if f := floor - 1; d.budget == "below" && f >= 2*d.threads+8 && f-o.pages < (o.p.K-1)*o.maxSpan {
		reads := o.fdb.Reads()
		if _, err := o.exec(o.engine(f, nil), context.Background(), core.RunSpec{Plan: o.p, Overlay: o.snap}, nil); !strings.Contains(fmt.Sprint(err), "increase the buffer") || o.fdb.Reads() != reads {
			o.fatalf("%d frames, one short of a %d-page vertex per level: %v after %d reads, want a refusal naming the buffer",
				f, o.maxSpan, err, o.fdb.Reads()-reads)
		}
		cov.Add("budget below the span floor")
	}
	if o.p.Cartesians > 0 {
		cov.Add("cartesian plan")
	}
	if o.p.Tail >= 2 { // a count run counts the tail, a row run enumerates it
		cov.Add(fmt.Sprintf("tail>=2 rows=%v", d.rows))
	}
	if d.q.Name() == "rand" && d.q.NumVertices() == 6 {
		cov.Add("random 6-vertex query")
	}
	cov.Add("graph:"+d.kind, "mode:"+d.mode, fmt.Sprintf("compress=%v", d.compress),
		fmt.Sprintf("cover=%v", d.cover), fmt.Sprintf("worst=%v", d.worst), fmt.Sprintf("equal=%v", d.equal),
		fmt.Sprintf("reorder=%v", d.reorder), fmt.Sprintf("threads=%d", d.threads), fmt.Sprintf("rows=%v", d.rows))
	if d.latency > 0 {
		cov.Add("latency")
	}

	if d.mode == rider {
		o.runRider(o.d.frames)
	} else {
		o.runSolo(o.d.frames)
	}
	if o.d.frames == threshold && d.budget == "threshold" {
		o.fdb.Heal()
		if _, err := o.exec(o.engine(threshold-1, nil), context.Background(), core.RunSpec{Plan: o.p, Overlay: o.snap}, nil); err != nil {
			o.fatalf("one frame short of the resident threshold: %v", err)
		}
		cov.Add("budget at the resident threshold")
	}
	if d.misdirect && o.pages > 1 {
		o.runMisdirected(rng)
	}
	if d.typed != "" {
		o.runTyped(rng)
	}
	if o.transient() {
		var rs storage.RetryStats
		for _, e := range o.engines {
			st := e.RetryStats()
			rs.Retries, rs.CRCRereads = rs.Retries+st.Retries, rs.CRCRereads+st.CRCRereads
			rs.Recovered, rs.Exhausted = rs.Recovered+st.Recovered, rs.Exhausted+st.Exhausted
		}
		st := o.fdb.Stats()
		if d.typed == "" && (rs.Exhausted != 0 || st.Injected > 0 && (rs.Retries == 0 || rs.Recovered == 0) ||
			st.Flipped > 0 && (rs.CRCRereads == 0 || rs.Recovered == 0)) {
			o.fatalf("retry layer %+v after %+v: want every fault recovered, none exhausted", rs, st)
		}
		if st.Injected+st.Flipped > 0 {
			cov.Add("absorbed " + d.fault)
		}
	}
	// Every page the draw's runs read was booked to exactly one scope, and
	// the registry they share is their sum, closed engines included. With
	// the engines' I/O workers stopped, every task a worker pool was handed
	// has run.
	for _, e := range o.engines {
		e.Close()
	}
	snap := o.reg.Snapshot()
	if got := snap.Counters["dualsim_pages_read_total"]; got != o.booked {
		o.fatalf("dualsim_pages_read_total %d, the draw's scopes read %d", got, o.booked)
	}
	if sub, done := snap.Counters["dualsim_worker_tasks_submitted_total"], snap.Counters["dualsim_worker_tasks_completed_total"]; sub != done ||
		sub == 0 || snap.Gauges["dualsim_worker_queue_depth"] != 0 {
		o.fatalf("worker tasks: %d submitted, %d completed", sub, done)
	}
}

// Seed sets: tier-1 runs seeds 1..oracleSeeds; with SOAK_SECONDS set, fresh
// seeds run until the time box closes.
const oracleSeeds = 60

// raceSeeds is the set run under -race, where make stress repeats it twenty
// times: tier-1 seeds that took under 0.2 s each under -race on two cores,
// seed 2, a late-joining rider, and seed 47, a faulted cohort. Together they
// reach every dimension the tier-1 set does (the coverage check holds them
// to it), in about a fifth of its time.
var raceSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 12, 13, 16, 17, 20, 21, 22, 26, 27, 28, 30, 31, 33, 34, 35, 36, 37,
	39, 41, 42, 43, 44, 46, 47, 48, 50, 52, 53, 55, 56, 60}

// TestDifferentialAllModes is the differential oracle: every seed draws a
// graph (random, planted hubs, bipartite, Chung-Lu or tiny), a query (q1–q5
// or a random connected one on 2–5 vertices), a build (plain or compressed,
// 64- to 4096-byte pages, degree-reordered or not), an engine (1–4 threads,
// 1–4 I/O workers, simulated device time or none, frames from the floor to
// past the page count, or exactly one maximal vertex per level, traced or
// not), a mode (solo, then resumed again from its first, middle or last
// checkpoint; killed — cancelled or past its deadline — at checkpoint k or
// inside a last-level pass, at its k-th read or at a multi-page vertex's
// last page, and resumed on an engine with other frames; a
// rider of the shared-scan scheduler beside up to two companions), an
// optional overlay batch, an optional fault schedule (transient under a
// retry budget, or a permanent device loss healed and resumed from the last
// checkpoint), runs on a context already ended, one frame short of the span
// floor, with a misdirected page and with a page failing for good, and the
// row hook on or off. Every run must count what brute force counts on the
// (mutated) graph and hand over each brute-force row exactly once across a
// failure and its resume, with nothing left pinned; its windows, registry
// and trace must agree with its result. Reproduce a failing seed with
//
//	go test ./internal/core -run 'TestDifferentialAllModes/seed=N$'
func TestDifferentialAllModes(t *testing.T) {
	seeds := oracletest.Seeds(oracleSeeds)
	if core.RaceEnabled {
		seeds = raceSeeds
	}
	cov := &oracletest.Coverage{}
	if !oracletest.Run(t, seeds, func(t *testing.T, s int64) {
		d := drawConfig(s)
		check(t, d, cov)
		if d.six != nil && !t.Failed() {
			// Six levels over many windows take seconds: hold the graph.
			d.q, d.six, d.frameFrac = d.six, nil, max(d.frameFrac, 1)
			d.budget, d.boundary, d.typed = "", "", ""
			check(t, d, cov)
		}
	}) {
		return
	}
	t.Logf("coverage over %d seeds: %v", len(seeds), cov)
	cov.Require(t, "graph:random", "graph:hubs", "graph:bipartite", "graph:chunglu", "graph:tiny",
		"compress=true", "compress=false", "reorder=true", "reorder=false", "threads=1", "threads=4",
		"mode:solo", "mode:kill", "mode:rider", "resident", "multi-window", "cartesian plan", "rows=true",
		"tail>=2 rows=false", "tail>=2 rows=true", "cover=MVC", "cover=AllRed", "worst=true", "equal=true",
		"random 6-vertex query",
		"overlay empty=false", "overlay empty=true", "rode", "rode beside companions", "refused rider", "late join",
		"resumed:kill/", "resumed:solo/permanent", "faulted cohort",
		"absorbed "+pages, "absorbed "+storm, "absorbed "+torn, "misdirected read",
		"budget at the span floor", "budget below the span floor", "budget at the resident threshold", "steal split on hubs",
		"killed inside a pass", "killed on a multi-page vertex's last page", "killed: context canceled", "killed: context deadline exceeded",
		"resumed from the first checkpoint", "resumed from the middle checkpoint", "resumed from the last checkpoint",
		"bad checkpoint refused", "typed:"+exhausted, "typed:"+corrupt,
		"pre-cancelled: context canceled", "pre-cancelled: context deadline exceeded", "traced", "latency",
		"busy refused", "rider eligibility", "rider closed before the release", "repeated: the same windows", "internal and external", "pages read again",
		"compressed records booked", "kernel:linear", "kernel:gallop", "kernel:probe")
}
