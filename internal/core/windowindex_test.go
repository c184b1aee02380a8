package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dualsim/internal/delta"
	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

// TestResidentWindowInternalOnly pins the resident regime: when level 1's
// share of the buffer holds the whole graph, it is one window spanning every
// vertex, so every embedding is internal and the engine visits no deeper
// level at all — no child candidates, no second window over the same pages —
// while counts stay bit-identical to brute force and every page is read
// exactly once. Paper queries plus three random connected ones, plain and
// compressed base files, with and without a live-ingest overlay.
func TestResidentWindowInternalOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	base := randomGraph(rng, 70, 320)
	queries := graph.PaperQueries()
	for i := 0; i < 3; i++ {
		queries = append(queries, randomConnectedQuery(rng, 3+rng.Intn(3)))
	}
	for _, compress := range []bool{false, true} {
		for _, overlay := range []bool{false, true} {
			db := buildDBOpts(t, base, 128, compress)
			want, spec := base, RunSpec{}
			if overlay {
				st := delta.NewStore(base.NumVertices(), db.Epoch())
				want = mutateRandom(t, st, base, rng, 1, "mixed")
				spec.Overlay = st.Snapshot()
			}
			for _, q := range queries {
				e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 4 * db.NumPages()})
				if err != nil {
					t.Fatal(err)
				}
				spec.Plan = mustPlan(t, q)
				res, err := e.RunSpecContext(context.Background(), spec)
				e.Close()
				if err != nil {
					t.Fatalf("%s compress=%v overlay=%v: %v", q, compress, overlay, err)
				}
				if count := graph.CountOccurrences(want, q); res.Count != count || res.External != 0 {
					t.Errorf("%s compress=%v overlay=%v: count %d (external %d), brute force %d",
						q, compress, overlay, res.Count, res.External, count)
				}
				for l, n := range res.WindowsPerLevel {
					if (l == 0) != (n == 1) || (l > 0 && n != 0) {
						t.Errorf("%s compress=%v overlay=%v: windows per level %v, want one at level 1 only",
							q, compress, overlay, res.WindowsPerLevel)
						break
					}
				}
				if res.Profile.PagesRead != uint64(db.NumPages()) {
					t.Errorf("%s compress=%v overlay=%v: %d physical reads of %d pages",
						q, compress, overlay, res.Profile.PagesRead, db.NumPages())
				}
			}
		}
	}
}

// TestWindowIndexConcurrentBuild stresses the lock-free index build: four
// I/O workers deliver a window's pages concurrently, each callback writing
// its own ordinal while last-level page tasks already match against theirs;
// 128-byte pages split every hub across many pages, so the side table, the
// hand-over of refused tasks, the rooting of multi-page candidates inside a
// pass and the page tasks' own-page restriction are all on the path, with
// and without an overlay. Counts must equal brute force. Run with -race
// -count=20 (make check does).
func TestWindowIndexConcurrentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(182))
	base := skewedGraph(rng, 260, 5, 90)
	queries := []*graph.Query{graph.Triangle(), graph.PaperQueries()[3]} // q1, q4
	for _, compress := range []bool{false, true} {
		for _, overlay := range []bool{false, true} {
			db := buildDBOpts(t, base, 128, compress)
			want, spec := base, RunSpec{}
			if overlay {
				st := delta.NewStore(base.NumVertices(), db.Epoch())
				want = mutateRandom(t, st, base, rng, 6, "mixed")
				spec.Overlay = st.Snapshot()
			}
			e, err := NewEngine(db, Options{
				Threads:        3,
				IOWorkers:      4,
				BufferFrames:   db.NumPages() / 3,
				PerPageLatency: 5 * time.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				spec.Plan = mustPlan(t, q)
				res, err := e.RunSpecContext(context.Background(), spec)
				if err != nil {
					t.Fatalf("%s compress=%v overlay=%v: %v", q.Name(), compress, overlay, err)
				}
				if res.WindowsPerLevel[0] < 2 {
					t.Fatalf("%s compress=%v overlay=%v: %v windows per level, want a multi-window run",
						q.Name(), compress, overlay, res.WindowsPerLevel)
				}
				if count := graph.CountOccurrences(want, q); res.Count != count {
					t.Errorf("%s compress=%v overlay=%v: count %d, brute force %d",
						q.Name(), compress, overlay, res.Count, count)
				}
			}
			e.Close()
		}
	}
}

// TestWindowIndexLoadAllocs: loading a resident level-1 window allocates per
// page (the ordinal array, a decode slab per compressed page), never per
// record — the index addresses records where the pages already hold them.
func TestWindowIndexLoadAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(183))
	g := randomGraph(rng, 4000, 9000)
	for _, compress := range []bool{false, true} {
		db := buildDBOpts(t, g, 4096, compress)
		e, err := NewEngine(db, Options{Threads: 1, BufferFrames: 2*db.NumPages() + 16})
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.NewSweep(SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Windows() != 1 {
			t.Fatalf("compress=%v: %d level-1 windows, want a resident graph", compress, s.Windows())
		}
		load := func() {
			w, err := s.Load(context.Background(), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			s.Release(w)
		}
		load() // every later pin is a hit
		allocs := testing.AllocsPerRun(10, load)
		pages, records := float64(db.NumPages()), float64(db.NumVertices())
		if limit := 24 + 2*pages; allocs > limit || limit > records/4 {
			t.Errorf("compress=%v: %.0f allocations per load of %.0f pages holding %.0f records (limit %.0f)",
				compress, allocs, pages, records, limit)
		}
		s.Close()
		e.Close()
	}
}

// TestWindowReloadAllocs: with the buffer below the graph, cycling through
// the level-1 windows evicts and re-reads every page, and once each frame has
// held a page a physical read allocates no page memory — the frame parses
// into the decoded page it keeps — but only a small constant (the frame's
// ready channel), never a decode slab or records.
func TestWindowReloadAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(184))
	g := randomGraph(rng, 4000, 9000)
	for _, compress := range []bool{false, true} {
		db := buildDBOpts(t, g, 4096, compress)
		e, err := NewEngine(db, Options{Threads: 1, BufferFrames: db.NumPages() / 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.NewSweep(SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Windows() < 3 {
			t.Fatalf("compress=%v: %d level-1 windows, want a graph the buffer cycles through", compress, s.Windows())
		}
		cycle := func() {
			for i := 0; i < s.Windows(); i++ {
				w, err := s.Load(context.Background(), i, 0)
				if err != nil {
					t.Fatal(err)
				}
				s.Release(w)
			}
		}
		cycle() // every frame has held a page
		const rounds = 5
		reads0 := s.r.scope.PagesRead.Load()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		reads := float64(s.r.scope.PagesRead.Load() - reads0)
		if pages := float64(rounds * db.NumPages()); reads < pages {
			t.Fatalf("compress=%v: %.0f physical reads in %d cycles over %.0f pages, want every page re-read", compress, reads, rounds, pages/rounds)
		}
		loads := float64(rounds * s.Windows())
		allocs, bytes := float64(after.Mallocs-before.Mallocs), float64(after.TotalAlloc-before.TotalAlloc)
		t.Logf("compress=%v: %.0f loads, %.0f physical reads: %.0f allocations, %.0f bytes", compress, loads, reads, allocs, bytes)
		// A load's own bookkeeping (its window, ordinal array and page list)
		// is a few allocations per load and some bytes per page; a page's
		// decode slab alone would be a page's worth of bytes per read.
		if perRead := (allocs - 16*loads) / reads; perRead > 2 {
			t.Errorf("compress=%v: %.0f allocations for %.0f loads and %.0f physical reads: %.2f per read beyond the loads' own",
				compress, allocs, loads, reads, perRead)
		}
		if perRead, limit := bytes/reads, float64(db.PageSize()/8); perRead > limit {
			t.Errorf("compress=%v: %.0f bytes allocated per physical read (limit %.0f)", compress, perRead, limit)
		}
		s.Close()
		e.Close()
	}
}

// TestNewEngineAllocs: an engine holds no per-vertex state. Opening one over
// 2^16 vertices allocates its pool's frame bookkeeping and constants (about
// 25 KB here), bounded by 256 B a frame, 16 B a page and 32 KB; an identity
// array of every vertex ID would add 256 KB.
func TestNewEngineAllocs(t *testing.T) {
	db := buildDBOpts(t, gen.ChungLu(1<<16, 1<<17, 2.8, 1), 4096, false)
	const frames = 64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := NewEngine(db, Options{Threads: 1, BufferFrames: frames})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if bytes, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*frames+16*db.NumPages()+32<<10); bytes > limit {
		t.Errorf("NewEngine allocated %d bytes for %d vertices on %d pages and %d frames, limit %d",
			bytes, db.NumVertices(), db.NumPages(), frames, limit)
	}
}

// TestExtMapPageLoadRace is the regression test for a data race between
// loading and matching: on the last level, extMapPage tasks are submitted as
// soon as their page lands, while later pages' load callbacks are still
// writing their ordinals of the pass's index. A page task restricts itself
// to its own page's complete records. Multiple I/O workers plus per-page
// latency stagger the callbacks so the overlap actually happens. Run with
// -race.
func TestExtMapPageLoadRace(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := skewedGraph(rng, 500, 6, 150)
	db := buildDB(t, g, 256) // small pages: many load callbacks per window
	rg, _ := graph.ReorderByDegree(g)
	want := graph.CountOccurrences(rg, graph.Triangle())

	e, err := NewEngine(db, Options{
		Threads:        4,
		IOWorkers:      4,
		BufferFrames:   96,
		PerPageLatency: 20 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 5; i++ {
		got, err := e.Count(graph.Triangle())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d: engine %d, brute force %d", i, got, want)
		}
	}
}
