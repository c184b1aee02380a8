package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"dualsim/internal/gen"
)

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
