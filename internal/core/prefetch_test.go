package core

import (
	"math/rand"
	"testing"
	"time"

	"dualsim/internal/graph"
)

// TestPrefetchCountersConsistent runs a buffer-starved fixture (many
// windows per level) with prefetching on and checks the pipeline's
// accounting: pages are actually issued, and every issued page is settled
// as exactly one of useful or wasted.
func TestPrefetchCountersConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := skewedGraph(rng, 2000, 6, 400)
	db := buildDB(t, g, 256)

	e, err := NewEngine(db, Options{Threads: 3, BufferFrames: 96, PrefetchFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(graph.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Metrics.Counters
	issued := c["dualsim_prefetch_issued_total"]
	useful := c["dualsim_prefetch_useful_total"]
	wasted := c["dualsim_prefetch_wasted_total"]
	if issued == 0 {
		t.Fatalf("no prefetch issued on a %d-page database with 96 frames", db.NumPages())
	}
	if useful+wasted != issued {
		t.Fatalf("prefetch accounting leak: issued %d, useful %d + wasted %d = %d",
			issued, useful, wasted, useful+wasted)
	}
	// The window iterator's lookahead replays the real budget walk, so on a
	// straight-line traversal the prediction should mostly hit.
	if useful == 0 {
		t.Errorf("every prefetched page was wasted (issued %d); lookahead is mispredicting", issued)
	}
	// EnumStats mirrors the same counters for the server's /stats.
	es := e.EnumStats()
	if es.PrefetchIssued != issued || es.PrefetchUseful != useful || es.PrefetchWasted != wasted {
		t.Fatalf("EnumStats %+v disagrees with counters issued=%d useful=%d wasted=%d",
			es, issued, useful, wasted)
	}
}

// TestPrefetchPoolNeverOverflows reruns the starved fixture across paper
// queries with an aggressive prefetch budget: the carve must keep the
// foreground path from ever seeing ErrNoFreeFrame (the run would fail),
// and counts must match the brute force.
func TestPrefetchPoolNeverOverflows(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := skewedGraph(rng, 500, 5, 150)
	db := buildDB(t, g, 512)
	rg, _ := graph.ReorderByDegree(g)
	for _, q := range graph.PaperQueries() {
		want := graph.CountOccurrences(rg, q)
		// A budget far beyond what fits: the engine must clamp the carve per
		// level, not overflow the pool.
		e, err := NewEngine(db, Options{Threads: 3, BufferFrames: 64, PrefetchFrames: 1000})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Count(q)
		e.Close()
		if err != nil {
			t.Fatalf("%s: %v", q.Name(), err)
		}
		if got != want {
			t.Fatalf("%s: engine %d, brute force %d", q.Name(), got, want)
		}
	}
}

// TestExtMapPageLoadRace is the regression test for the loadWindow data
// race: on the last level, extMapPage tasks are submitted as soon as their
// page lands, while later pages' load callbacks are still writing their
// ordinals of the window index. A task that starts before the window is
// sealed restricts itself to its own page's complete records. Multiple I/O
// workers plus per-page latency stagger the callbacks so the overlap
// actually happens. Run with -race.
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

// TestExtMapPageLoadRaceWithPrefetch repeats the overlap stress with the
// cross-window pipeline on: speculative reads share the I/O workers with
// foreground loads, widening the window in which page tasks run unsealed.
func TestExtMapPageLoadRaceWithPrefetch(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	g := skewedGraph(rng, 500, 6, 150)
	db := buildDB(t, g, 256)
	rg, _ := graph.ReorderByDegree(g)
	want := graph.CountOccurrences(rg, graph.Triangle())

	e, err := NewEngine(db, Options{
		Threads:        4,
		IOWorkers:      4,
		BufferFrames:   96,
		PrefetchFrames: 16,
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
