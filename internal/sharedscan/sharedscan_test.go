package sharedscan

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualsim/internal/buffer"
	"dualsim/internal/core"
	"dualsim/internal/faultdb"
	"dualsim/internal/graph"
	"dualsim/internal/plan"
	"dualsim/internal/storage"
)

func buildDB(t *testing.T, g *graph.Graph, opts storage.BuildOptions) *storage.DB {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.db")
	opts.TempDir = dir
	if _, err := storage.BuildFromGraph(path, g, opts); err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func randomGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]graph.VertexID, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]graph.VertexID{
			graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)),
		})
	}
	return graph.MustNewGraph(n, edges)
}

func mustPlan(t *testing.T, q *graph.Query) *plan.Plan {
	t.Helper()
	p, err := plan.Prepare(q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pagesRead is the engine's dualsim_pages_read_total: its pool's physical
// reads, as settled at the last window boundary or sweep end.
func pagesRead(e *core.Engine) uint64 {
	return e.Registry().Snapshot().Counters["dualsim_pages_read_total"]
}

// soloBaseline runs each query once on a fresh engine and returns counts
// plus the physical reads of a single solo run of queries[0].
func soloBaseline(t *testing.T, db *storage.DB, frames int, queries []*graph.Query) (map[string]uint64, uint64) {
	t.Helper()
	counts := make(map[string]uint64)
	var firstPages uint64
	for i, q := range queries {
		e, err := core.NewEngine(db, core.Options{Threads: 2, BufferFrames: frames})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(q)
		if err != nil {
			t.Fatalf("solo %s: %v", q.Name(), err)
		}
		counts[q.Name()] = res.Count
		if i == 0 {
			firstPages = pagesRead(e)
		}
		e.Close()
	}
	return counts, firstPages
}

// TestSchedulerSharedReadsSublinear is the paper's amortization claim at
// the scheduler level: 4 identical concurrent queries through one cohort
// must cost < 1.5x the physical reads of a single solo run. The frame
// budget here is the serving deployment's: the cohort engine holds the
// UNDIVIDED global budget (what N solo engines would have split N ways),
// so the level-1 sweep is read once and the riders' deep-level reads land
// on resident pages. (With a budget far below the working set, per-rider
// deep re-reads dominate and sharing only the level-1 scan cannot reach
// 1.5x — that regime is covered by the counts-match tests above.)
func TestSchedulerSharedReadsSublinear(t *testing.T) {
	const frames = 640 // fixture is 394 pages; level-1 budget still splits the cycle
	g := randomGraph(7, 2000, 8000)
	db := buildDB(t, g, storage.BuildOptions{PageSize: 256})
	tri := graph.Triangle()
	solo, soloPages := soloBaseline(t, db, frames, []*graph.Query{tri})
	if soloPages == 0 {
		t.Fatal("solo run read no pages; fixture too small")
	}

	eng, err := core.NewEngine(db, core.Options{Threads: 4, BufferFrames: frames})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sched := New(eng, Options{MaxRiders: 4})
	defer sched.Close()

	const n = 4
	var wg sync.WaitGroup
	results := make([]*core.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sched.Run(context.Background(), core.RunSpec{Plan: mustPlan(t, tri)})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("rider %d: %v", i, errs[i])
		}
		if results[i].Count != solo[tri.Name()] {
			t.Errorf("rider %d: count %d, solo %d", i, results[i].Count, solo[tri.Name()])
		}
	}
	cohortPages := pagesRead(eng)
	if float64(cohortPages) >= 1.5*float64(soloPages) {
		t.Errorf("4 cohorted queries read %d pages, solo run reads %d: %.2fx >= 1.5x",
			cohortPages, soloPages, float64(cohortPages)/float64(soloPages))
	}
	t.Logf("pages: solo=%d cohort-4q=%d (%.2fx)", soloPages, cohortPages,
		float64(cohortPages)/float64(soloPages))
}

// TestSchedulerLifecycle covers the edges: resume specs bounce with
// ErrNotEligible before touching the sweep, a cancelled waiter leaves the
// queue cleanly, and Close refuses new work.
func TestSchedulerLifecycle(t *testing.T) {
	g := randomGraph(3, 500, 2000)
	db := buildDB(t, g, storage.BuildOptions{PageSize: 256})
	eng, err := core.NewEngine(db, core.Options{Threads: 2, BufferFrames: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sched := New(eng, Options{MaxRiders: 2})
	tri := mustPlan(t, graph.Triangle())

	if _, err := sched.Run(context.Background(),
		core.RunSpec{Plan: tri, Resume: &core.Checkpoint{}}); !errors.Is(err, ErrNotEligible) {
		t.Fatalf("resume: err = %v, want ErrNotEligible", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sched.Run(ctx, core.RunSpec{Plan: tri}); err == nil {
		t.Fatal("dead-context run succeeded")
	}

	// A normal run still works after the above.
	if res, err := sched.Run(context.Background(), core.RunSpec{Plan: tri}); err != nil || res == nil {
		t.Fatalf("post-noise run: %v", err)
	}

	sched.Close()
	if _, err := sched.Run(context.Background(), core.RunSpec{Plan: tri}); !errors.Is(err, ErrNotEligible) {
		t.Fatalf("closed scheduler: err = %v, want ErrNotEligible", err)
	}
	sched.Close() // idempotent
}

// dealGraph is the fixture of the cohort deal: a sparse random graph with two
// hubs whose lists span pages on both layouts below, so every level of every
// deal has to hold a multi-page vertex.
func dealGraph() *graph.Graph {
	const n = 160
	rng := rand.New(rand.NewSource(23))
	var edges [][2]graph.VertexID
	add := func(u, v int) {
		if u != v {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(u), graph.VertexID(v)})
		}
	}
	for i := 0; i < 4*n; i++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	for _, hub := range []int{40, 110} {
		for i := 0; i < 60; i++ {
			add(hub, rng.Intn(n))
		}
	}
	add(40, 110)
	return graph.MustNewGraph(n, edges)
}

// TestCohortDealExactBudget rides q1, q4, q5 and q2 — a stream only, and
// three plans with a middle level — through the scheduler in a pool that
// holds exactly the cohort's frames, at the tightest admissible size: the
// equal share is one maximal vertex per deep level. Riders ask for seats a
// window or two apart (and, with 2 seats, wait for one), so riders board and
// leave at different boundaries and every deal shrinks and grows mid-cycle;
// four I/O workers with a per-page latency land pages out of order. A deal
// that summed to one frame more than the pool would fail a run with
// buffer.ErrNoFreeFrame. Counts must equal brute force and nothing may stay
// pinned. Run with -race -count=20 (make check does).
func TestCohortDealExactBudget(t *testing.T) {
	g := dealGraph()
	qs := graph.PaperQueries()
	queries := []*graph.Query{qs[0], qs[3], qs[4], qs[1]} // q1, q4, q5, q2
	want := make([]uint64, len(queries))
	plans := make([]*plan.Plan, len(queries))
	for i, q := range queries {
		want[i], plans[i] = graph.CountOccurrences(g, q), mustPlan(t, q)
	}
	for _, layout := range []struct {
		pageSize int
		compress bool
	}{{128, false}, {64, true}} {
		db := buildDB(t, g, storage.BuildOptions{PageSize: layout.pageSize, SkipReorder: true, Compress: layout.compress})
		maxSpan := 0
		for v := 0; v < db.NumVertices(); v++ {
			first, last := db.SpanOf(graph.VertexID(v))
			maxSpan = max(maxSpan, int(last-first)+1)
		}
		if maxSpan < 2 {
			t.Fatalf("pageSize=%d: no multi-page vertex", layout.pageSize)
		}
		for _, maxRiders := range []int{2, 4} {
			share := 2 * maxSpan // one maximal vertex for each deep level of q4, q5 and q2
			frames := 2 * maxRiders * share
			eng, err := core.NewEngine(db, core.Options{Threads: 2, IOWorkers: 4, BufferFrames: frames,
				PerPageLatency: 5 * time.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			if eng.BufferFrames() != frames || frames >= db.NumPages() {
				t.Fatalf("pageSize=%d seats=%d: asked for %d frames of %d pages, the engine holds %d; the pool must hold exactly the budget, below the graph",
					layout.pageSize, maxRiders, frames, db.NumPages(), eng.BufferFrames())
			}
			sched := New(eng, Options{MaxRiders: maxRiders})
			var wg sync.WaitGroup
			var grown atomic.Bool // a rider with a middle level was dealt more than the equal share
			for round := 0; round < 2; round++ {
				for i := range queries {
					i := (i + round) % len(queries)
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, err := sched.Run(context.Background(), core.RunSpec{Plan: plans[i]})
						switch {
						case errors.Is(err, buffer.ErrNoFreeFrame):
							t.Errorf("pageSize=%d seats=%d %s: a deal overran the pool: %v", layout.pageSize, maxRiders, queries[i].Name(), err)
						case err != nil:
							t.Errorf("pageSize=%d seats=%d %s: %v", layout.pageSize, maxRiders, queries[i].Name(), err)
						case res.Count != want[i]:
							t.Errorf("pageSize=%d seats=%d %s: count %d (windows %v), brute force %d",
								layout.pageSize, maxRiders, queries[i].Name(), res.Count, res.WindowsPerLevel, want[i])
						case plans[i].K > 2 && res.BufferFrames > share:
							grown.Store(true)
						}
					}()
					// The next rider asks for a seat a boundary or two later.
					next := sched.Stats().SharedWindows + uint64(1+i%2)
					for wait := time.Now(); sched.Stats().SharedWindows < next && time.Since(wait) < time.Second; {
						time.Sleep(50 * time.Microsecond)
					}
				}
			}
			wg.Wait()
			sched.Close()
			if !grown.Load() {
				t.Errorf("pageSize=%d seats=%d: no rider with a middle level was ever dealt more than the equal share", layout.pageSize, maxRiders)
			}
			if n := eng.PinnedFrames(); n != 0 {
				t.Errorf("pageSize=%d seats=%d: %d frames still pinned", layout.pageSize, maxRiders, n)
			}
			eng.Close()
		}
	}
}

// boardInOrder starts specs[0], whose rider starts the sweep, and holds the
// sweep's first page read until each later spec is queued, one at a time:
// specs[0] rides from window 0 alone, the next spec boards at window 1 and
// any further one waits for a seat. hold is the OnRead hook of the
// scheduler's database; the outcomes come back in spec order.
func boardInOrder(t *testing.T, sched *Scheduler, hold *readHold, specs ...core.RunSpec) []outcome {
	t.Helper()
	out := make([]outcome, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sched.Run(context.Background(), specs[i])
			out[i] = outcome{res, err}
		}()
		if i == 0 {
			<-hold.held
			continue
		}
		for queued := 0; queued < i; time.Sleep(50 * time.Microsecond) {
			sched.mu.Lock()
			queued = len(sched.pending)
			sched.mu.Unlock()
		}
	}
	close(hold.release)
	wg.Wait()
	return out
}

// readHold blocks the first page read of its database until release closes.
type readHold struct{ held, release chan struct{} }

func newReadHold() *readHold {
	return &readHold{held: make(chan struct{}), release: make(chan struct{})}
}

func (h *readHold) onRead(n int64, _ storage.PageID) {
	if n == 1 {
		close(h.held)
		<-h.release
	}
}

// TestSchedulerFaults: a cohort has no recovery of its own, the read path's
// retry budget is all that stands between a faulty page and the riders on the
// sweep. (a) A transient fault on a level-1 page within the budget is absorbed:
// every rider counts what it counts solo. (b) A permanent fault on a level-1
// page fails every rider on board with the injected fault and bounces the one
// still waiting for a seat to a solo engine; nothing stays pinned, and once
// the device heals the next sweep answers exactly. (c) A permanent fault on the
// first read of a page that only a rider's deep level is reading at that
// moment fails that rider alone; the sweep and the other rider go on. The
// one-level edge query starts every sweep: its rider reads nothing below
// level 1, so the only reads of window 0 are the sweep's own.
func TestSchedulerFaults(t *testing.T) {
	const frames = 48
	g := randomGraph(11, 500, 2000)
	db := buildDB(t, g, storage.BuildOptions{PageSize: 256})
	edge := graph.MustNewQuery("edge", 2, [][2]int{{0, 1}})
	tri := graph.Triangle()
	solo, _ := soloBaseline(t, db, frames, []*graph.Query{edge, tri})
	spec := func(q *graph.Query) core.RunSpec { return core.RunSpec{Plan: mustPlan(t, q)} }

	cohort := func(t *testing.T, fdb *faultdb.DB) (*core.Engine, *Scheduler) {
		t.Helper()
		eng, err := core.NewEngine(fdb, core.Options{Threads: 2, BufferFrames: frames,
			Retry: &storage.RetryPolicy{MaxRetries: 3, Sleep: func(time.Duration) {}}})
		if err != nil {
			t.Fatal(err)
		}
		sched := New(eng, Options{MaxRiders: 2})
		t.Cleanup(func() {
			sched.Close()
			eng.Close()
		})
		return eng, sched
	}
	wantSolo := func(t *testing.T, o outcome, q *graph.Query) {
		t.Helper()
		if o.err != nil {
			t.Fatalf("%s: %v", q.Name(), o.err)
		}
		if o.res.Count != solo[q.Name()] {
			t.Errorf("%s: count %d, solo %d", q.Name(), o.res.Count, solo[q.Name()])
		}
	}

	// The level-1 partition: a rider that starts a sweep checkpoints at the
	// end of every window.
	var ends []int
	_, sched := cohort(t, faultdb.Wrap(db, faultdb.Options{}))
	first := spec(edge)
	first.OnCheckpoint = func(cp core.Checkpoint) { ends = append(ends, cp.Cursor) }
	if _, err := sched.Run(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	lastPageOf := func(w int) storage.PageID {
		_, last := db.SpanOf(graph.VertexID(ends[w] - 1))
		return last
	}
	lastPage := storage.PageID(db.NumPages() - 1)
	if len(ends) < 3 || lastPageOf(1) == lastPageOf(0) || lastPageOf(1) >= lastPage {
		t.Fatalf("fixture: %d level-1 windows ending before vertices %v; want three or more, window 1's last page past window 0's and before page %d",
			len(ends), ends, lastPage)
	}
	win1 := lastPageOf(1) // read first by the sweep's load of window 1

	t.Run("transient level-1 page", func(t *testing.T) {
		hold := newReadHold()
		fdb := faultdb.Wrap(db, faultdb.Options{OnRead: hold.onRead}).TransientPages(2, win1)
		eng, sched := cohort(t, fdb)
		out := boardInOrder(t, sched, hold, spec(edge), spec(tri))
		wantSolo(t, out[0], edge)
		wantSolo(t, out[1], tri)
		if st := eng.RetryStats(); st.Recovered != 1 {
			t.Errorf("retry layer %+v, want the one faulty read recovered", st)
		}
		if n := eng.PinnedFrames(); n != 0 {
			t.Errorf("%d frames still pinned", n)
		}
	})

	t.Run("permanent level-1 page", func(t *testing.T) {
		hold := newReadHold()
		fdb := faultdb.Wrap(db, faultdb.Options{OnRead: hold.onRead}).FailPages(nil, win1)
		eng, sched := cohort(t, fdb)
		out := boardInOrder(t, sched, hold, spec(edge), spec(tri), spec(tri))
		for i, o := range out[:2] {
			if !errors.Is(o.err, faultdb.ErrInjected) {
				t.Errorf("rider %d on board: err %v, want the injected fault", i, o.err)
			}
		}
		if !errors.Is(out[2].err, ErrNotEligible) {
			t.Errorf("waiting rider: err %v, want ErrNotEligible", out[2].err)
		}
		if n := eng.PinnedFrames(); n != 0 {
			t.Errorf("%d frames still pinned after the failed sweep", n)
		}
		fdb.Heal()
		for _, q := range []*graph.Query{edge, tri} {
			res, err := sched.Run(context.Background(), spec(q))
			wantSolo(t, outcome{res, err}, q)
		}
	})

	t.Run("permanent deep-level read", func(t *testing.T) {
		hold := newReadHold()
		var fdb *faultdb.DB
		var failed atomic.Bool
		fdb = faultdb.Wrap(db, faultdb.Options{OnRead: func(n int64, pid storage.PageID) {
			hold.onRead(n, pid)
			if pid == lastPage && failed.CompareAndSwap(false, true) {
				fdb.Heal() // this read still fails: the schedule was taken before the hook
			}
		}}).FailPages(nil, lastPage)
		eng, sched := cohort(t, fdb)
		out := boardInOrder(t, sched, hold, spec(edge), spec(tri))
		wantSolo(t, out[0], edge)
		if !errors.Is(out[1].err, faultdb.ErrInjected) {
			t.Errorf("the rider whose deep level read page %d: err %v, want the injected fault", lastPage, out[1].err)
		}
		if got := fdb.PageReads(lastPage); got < 2 {
			t.Errorf("page %d read %d times: the sweep never read it after the rider's failed read", lastPage, got)
		}
		if n := eng.PinnedFrames(); n != 0 {
			t.Errorf("%d frames still pinned", n)
		}
	})
}
