package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"dualsim/internal/faultdb"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// streamHubs are the multi-page vertices of streamGraph.
var streamHubs = []graph.VertexID{85, 171, 255}

// streamGraph is the fixture of the streamed last level: a ring with chords
// over n = 340 vertices and three hubs a quarter of the ID space apart, wired
// to each other and to a few hundred others. IDs are laid out as given, so a
// hub's list starts on the page its predecessor's record ends on and ends on
// the page its successor's starts on (streamDB checks that one does), and
// hubs being everybody's neighbours, their pages are candidates of every pass.
func streamGraph() *graph.Graph {
	const n = 340
	rng := rand.New(rand.NewSource(221))
	var edges [][2]graph.VertexID
	for v := 0; v < n; v++ {
		edges = append(edges, [2]graph.VertexID{graph.VertexID(v), graph.VertexID((v + 1) % n)})
		if v%5 == 0 {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(v), graph.VertexID(rng.Intn(n))})
		}
	}
	hubs := streamHubs
	for i, h := range hubs {
		for j := 0; j < 280; j++ {
			edges = append(edges, [2]graph.VertexID{h, graph.VertexID(rng.Intn(n))})
		}
		for _, h2 := range hubs[i+1:] {
			edges = append(edges, [2]graph.VertexID{h, h2})
		}
	}
	var simple [][2]graph.VertexID
	for _, e := range edges {
		if e[0] != e[1] {
			simple = append(simple, e)
		}
	}
	return graph.MustNewGraph(n, simple)
}

// streamDB builds streamGraph with the given page layout and returns it with
// the page span of its largest adjacency list.
func streamDB(t *testing.T, g *graph.Graph, pageSize int, compress bool) (db *storage.DB, maxSpan int) {
	t.Helper()
	db = buildDBOpts(t, g, pageSize, compress)
	shared := false
	for _, h := range streamHubs {
		first, last := db.SpanOf(h)
		before, _ := db.SpanOf(h - 1)
		after, _ := db.SpanOf(h + 1)
		shared = shared || first < last && before == first && after == last
	}
	if !shared {
		t.Fatalf("pageSize=%d compress=%v: no hub's span starts and ends on pages it shares with complete records",
			pageSize, compress)
	}
	for v := 0; v < db.NumVertices(); v++ {
		f, l := db.SpanOf(graph.VertexID(v))
		maxSpan = max(maxSpan, int(l-f)+1)
	}
	return db, maxSpan
}

// TestStreamExactBudget runs the streamed last level in a pool that holds
// exactly the frames the allocation hands out — one maximal vertex per level,
// then half the graph — so a pass pinning one page more than its budget
// beyond the path-pinned set fails the run with buffer.ErrNoFreeFrame. Four
// I/O workers with a per-page latency land the pages of a pass out of order
// while their tasks finish out of order; the hub's span shares its first and
// last page with complete records, which are matched by the pages' own tasks
// while the span waits for its last chunk. Counts must equal brute force and
// nothing may stay pinned. Run with -race -count=20 (make check does).
func TestStreamExactBudget(t *testing.T) {
	g := streamGraph()
	qs := graph.PaperQueries()
	queries := []*graph.Query{qs[0], qs[2], qs[3], qs[4]} // q1, q3, q4, q5
	for _, layout := range []struct {
		pageSize int
		compress bool
	}{{128, false}, {64, true}} {
		db, maxSpan := streamDB(t, g, layout.pageSize, layout.compress)
		for _, q := range queries {
			p := mustPlan(t, q)
			want := graph.CountOccurrences(g, q)
			for _, frames := range []int{p.K * maxSpan, db.NumPages() / 2} {
				e, err := NewEngine(db, Options{Threads: 2, IOWorkers: 4, BufferFrames: frames,
					PerPageLatency: 5 * time.Microsecond})
				if err != nil {
					t.Fatal(err)
				}
				if e.BufferFrames() != frames {
					t.Fatalf("%s pageSize=%d: the engine raised %d frames to %d; the pool must hold exactly the budget",
						q.Name(), layout.pageSize, frames, e.BufferFrames())
				}
				res, err := e.RunSpecContext(context.Background(), RunSpec{Plan: p})
				if err != nil {
					t.Fatalf("%s pageSize=%d frames=%d: %v", q.Name(), layout.pageSize, frames, err)
				}
				if res.Count != want {
					t.Errorf("%s pageSize=%d frames=%d: count %d (windows %v), brute force %d",
						q.Name(), layout.pageSize, frames, res.Count, res.WindowsPerLevel, want)
				}
				if res.WindowsPerLevel[p.K-1] < 2 {
					t.Errorf("%s pageSize=%d frames=%d: windows per level %v, want several passes",
						q.Name(), layout.pageSize, frames, res.WindowsPerLevel)
				}
				if n := e.PinnedFrames(); n != 0 {
					t.Errorf("%s pageSize=%d frames=%d: %d frames still pinned", q.Name(), layout.pageSize, frames, n)
				}
				e.Close()
			}
		}
	}
}

// streamFaultTarget returns a clean run's count and a page only a pass can
// be the first to read: the last page of the last hub's span, which lies
// beyond the first level-1 window, while the hub is a last-level candidate of
// that window's pass.
func streamFaultTarget(t *testing.T, db *storage.DB, q *graph.Query, opts Options) (want uint64, target storage.PageID) {
	t.Helper()
	e, err := NewEngine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var cps []Checkpoint
	res, err := e.RunSpecContext(context.Background(), RunSpec{Plan: mustPlan(t, q),
		OnCheckpoint: func(cp Checkpoint) { cps = append(cps, cp) }})
	if err != nil {
		t.Fatal(err)
	}
	_, target = db.SpanOf(streamHubs[len(streamHubs)-1])
	if len(cps) < 2 {
		t.Fatalf("fixture: %d level-1 windows, want 2 or more", len(cps))
	}
	if end, _ := db.SpanOf(graph.VertexID(cps[0].Cursor - 1)); end >= target {
		t.Fatalf("fixture: the first level-1 window ends on page %d, target page %d: the target must lie beyond the first window",
			end, target)
	}
	return res.Count, target
}

// TestStreamFaultMidPass: a transient fault on a page whose first reader is a
// last-level pass is absorbed by the read path's retry, with the count
// unchanged and every embedding delivered exactly once; a permanent fault on
// the same page fails the run on that read with nothing left pinned.
func TestStreamFaultMidPass(t *testing.T) {
	g := streamGraph()
	q := graph.Triangle()
	db, maxSpan := streamDB(t, g, 128, false)
	opts := Options{Threads: 2, IOWorkers: 2, BufferFrames: 3 * maxSpan, Retry: fastRetry(2, 1)}
	want, target := streamFaultTarget(t, db, q, opts)
	if want != graph.CountOccurrences(g, q) {
		t.Fatalf("clean run counted %d, brute force %d", want, graph.CountOccurrences(g, q))
	}

	// transient runs q with one transient fault on the page streamFaultTarget
	// picks for it, a row hook set.
	transient := func(t *testing.T, q *graph.Query, opts Options) {
		want, target := streamFaultTarget(t, db, q, opts)
		fdb := faultdb.Wrap(db, faultdb.Options{}).TransientPages(1, target)
		e, err := NewEngine(fdb, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		p := mustPlan(t, q)
		var sink rowSink
		res, err := e.RunSpecContext(context.Background(), RunSpec{Plan: p, OnRows: sink.onRows})
		if err != nil {
			t.Fatalf("the read retry should have absorbed the fault: %v", err)
		}
		if res.Count != want {
			t.Errorf("count %d after a retried read, want %d", res.Count, want)
		}
		if uint64(sink.n) != res.Count {
			t.Errorf("%d rows handed over for a count of %d", sink.n, res.Count)
		}
		requireRowsBelow(t, q.Name(), sink.seen, bruteRows(g, p), g.NumVertices())
		if st := e.RetryStats(); st.Recovered != 1 || st.Exhausted != 0 {
			t.Errorf("retry layer %+v, want the one fault recovered at the read", st)
		}
		if n := e.PinnedFrames(); n != 0 {
			t.Errorf("%d frames still pinned after a faulted pass", n)
		}
	}
	t.Run("transient", func(t *testing.T) { transient(t, q, opts) })
	t.Run("transient q4", func(t *testing.T) {
		o := opts
		o.BufferFrames = 4 * maxSpan // three levels: the pass runs under two windows
		transient(t, graph.PaperQueries()[3], o)
	})

	t.Run("permanent", func(t *testing.T) {
		fdb := faultdb.Wrap(db, faultdb.Options{}).FailPages(nil, target)
		e, err := NewEngine(fdb, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.Run(q); !errors.Is(err, faultdb.ErrInjected) {
			t.Fatalf("run error %v, want the injected fault", err)
		}
		if got := fdb.PageReads(target); got != 1 {
			t.Errorf("page %d read %d times, want 1: a permanent fault is not retried", target, got)
		}
		if n := e.PinnedFrames(); n != 0 {
			t.Errorf("%d frames still pinned after a failed pass", n)
		}
		// The engine is clean: the same run succeeds once the device heals.
		fdb.Heal()
		res, err := e.Run(q)
		if err != nil || res.Count != want {
			t.Errorf("after healing: count %d, err %v; want %d", res.Count, err, want)
		}
	})
}

// TestStreamCancelMidPass: a cancel that lands while a pass has reads in
// flight and tasks matching returns ctx.Err() once they have settled, with
// nothing left pinned and the engine reusable.
func TestStreamCancelMidPass(t *testing.T) {
	g := streamGraph()
	q := graph.PaperQueries()[3] // q4: three levels, the pass runs under two windows
	db, maxSpan := streamDB(t, g, 128, false)
	opts := Options{Threads: 2, IOWorkers: 4, BufferFrames: 4 * maxSpan, PerPageLatency: 5 * time.Microsecond}
	want, target := streamFaultTarget(t, db, q, opts)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	fdb := faultdb.Wrap(db, faultdb.Options{OnRead: func(_ int64, pid storage.PageID) {
		if pid == target && fired.CompareAndSwap(false, true) {
			cancel()
		}
	}})
	e, err := NewEngine(fdb, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("run error %v, want context.Canceled", err)
	}
	if !fired.Load() {
		t.Fatal("the target page was never read: the cancel did not come from inside a pass")
	}
	if n := e.PinnedFrames(); n != 0 {
		t.Errorf("%d frames still pinned after a cancelled pass", n)
	}
	res, err := e.Run(q)
	if err != nil || res.Count != want {
		t.Errorf("after the cancel: count %d, err %v; want %d", res.Count, err, want)
	}
}
