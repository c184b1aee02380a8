package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualsim/internal/graph"
)

// skewedGraph plants hubs into a sparse background so adjacency-list
// lengths (and per-candidate enumeration cost) are heavily skewed — the
// fixture for work-stealing and the galloping kernel. hubs vertices are
// each wired to about span random background vertices and to each other.
func skewedGraph(rng *rand.Rand, n, hubs, span int) *graph.Graph {
	var edges [][2]graph.VertexID
	// Sparse background ring + chords.
	for v := 0; v < n-hubs; v++ {
		edges = append(edges, [2]graph.VertexID{graph.VertexID(v), graph.VertexID((v + 1) % (n - hubs))})
		if v%7 == 0 {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(v), graph.VertexID(rng.Intn(n - hubs))})
		}
	}
	// Hubs: dense attachment into the background plus a hub clique.
	for h := 0; h < hubs; h++ {
		hv := graph.VertexID(n - hubs + h)
		for i := 0; i < span; i++ {
			edges = append(edges, [2]graph.VertexID{hv, graph.VertexID(rng.Intn(n - hubs))})
		}
		for h2 := h + 1; h2 < hubs; h2++ {
			edges = append(edges, [2]graph.VertexID{hv, graph.VertexID(n - hubs + h2)})
		}
	}
	g, err := graph.NewGraph(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// TestEngineMatchesBruteForceMatrix runs every paper query on a skewed
// fixture through {plain, compressed database} x {the default buffer, 96
// and 128 frames} and requires the brute-force count from each.
func TestEngineMatchesBruteForceMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := skewedGraph(rng, 400, 6, 120)
	rg, _ := graph.ReorderByDegree(g)
	for _, db := range []struct {
		name string
		db   Database
	}{
		{"plain", buildDB(t, g, 512)},
		{"compressed", buildCompressedDB(t, g, 512)},
	} {
		for _, q := range graph.PaperQueries() {
			want := graph.CountOccurrences(rg, q)
			for _, opt := range []Options{
				{Threads: 3},
				{Threads: 3, BufferFrames: 96},
				{Threads: 3, BufferFrames: 128},
			} {
				e, err := NewEngine(db.db, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Count(q)
				e.Close()
				if err != nil {
					t.Fatalf("%s/%s: %v", db.name, q.Name(), err)
				}
				if got != want {
					t.Fatalf("%s/%s (frames=%d): engine %d, brute force %d",
						db.name, q.Name(), opt.BufferFrames, got, want)
				}
			}
		}
	}
}

// TestCompressedRunBooksRecords checks that a run on a compressed database
// books the compressed records and bytes its windows load, and counts what
// brute force counts: each record is decoded once, as its page is parsed.
func TestCompressedRunBooksRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := skewedGraph(rng, 400, 6, 120)
	db := buildCompressedDB(t, g, 512)

	e, err := NewEngine(db, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(graph.Triangle())
	e.Close()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Metrics.Counters
	if c["dualsim_compressed_records_total"] == 0 || c["dualsim_compressed_bytes_total"] == 0 {
		t.Fatalf("compressed database loaded no compressed records: %v", c)
	}
	if want := graph.CountOccurrences(g, graph.Triangle()); res.Count != want {
		t.Errorf("count %d on a compressed database, brute force %d", res.Count, want)
	}
}

// TestKernelCountersExported checks that a run on the skewed fixture
// records kernel selections (including galloping, given hub-vs-ring skew).
func TestKernelCountersExported(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := skewedGraph(rng, 300, 5, 100)
	db := buildDB(t, g, 512)

	e, err := NewEngine(db, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(graph.Triangle())
	e.Close()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Metrics.Counters
	total := c["dualsim_intersect_linear_total"] + c["dualsim_intersect_gallop_total"]
	if total == 0 {
		t.Fatalf("no kernel selections recorded: %v", c)
	}
	if c["dualsim_intersect_gallop_total"] == 0 {
		t.Errorf("skewed fixture never picked the galloping kernel: %v", c)
	}
}

// TestWorkerPoolTrySubmit pins trySubmit's non-blocking contract: it must
// refuse (not block) when the channel is full, and succeed otherwise.
func TestWorkerPoolTrySubmit(t *testing.T) {
	p := newWorkerPool(1, nil, nil)
	defer p.close()
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	p.submit(func() { entered.Done(); <-release })
	entered.Wait()
	// Fill the queue (capacity 4*threads = 4), then one more must refuse.
	accepted := 0
	for i := 0; i < 10; i++ {
		if p.trySubmit(func() {}) {
			accepted++
		}
	}
	if accepted == 0 || accepted >= 10 {
		t.Fatalf("trySubmit accepted %d of 10 with a blocked pool; want some refused", accepted)
	}
	close(release)
	p.drain()
}

// TestWorkerPoolHungry checks the drained-queue signal that gates splits.
func TestWorkerPoolHungry(t *testing.T) {
	p := newWorkerPool(2, nil, nil)
	defer p.close()
	p.drain()
	// All workers idle, queue empty: the pool is starving. Workers mark
	// themselves idle just after completing, so poll briefly.
	for i := 0; i < 1000 && !p.hungry(); i++ {
		time.Sleep(time.Millisecond)
	}
	if !p.hungry() {
		t.Fatal("idle pool never reported hungry")
	}
}

// TestStealSplitsOnSkew drives a window whose internal enumeration work is
// concentrated in a few hub candidates and looks for a recorded
// work-stealing split.
func TestStealSplitsOnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := skewedGraph(rng, 600, 6, 200)
	db := buildDB(t, g, 4096)

	e, err := NewEngine(db, Options{Threads: 4, BufferFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(graph.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Counters["dualsim_steal_splits_total"] == 0 {
		t.Log("no splits on skewed fixture (pool never drained mid-window); acceptable but unexpected")
	}
}

// TestStealCorrectUnderConcurrentLoad hammers the stealing path: many runs
// on a skewed fixture with more threads than work, checking the count every
// time (a lost or double-counted split would show up as a wrong total).
func TestStealCorrectUnderConcurrentLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := skewedGraph(rng, 250, 4, 80)
	db := buildDB(t, g, 512)
	rg, _ := graph.ReorderByDegree(g)
	want := graph.CountOccurrences(rg, graph.Triangle())

	e, err := NewEngine(db, Options{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var bad atomic.Int64
	for i := 0; i < 20; i++ {
		got, err := e.Count(graph.Triangle())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			bad.Add(1)
		}
	}
	if bad.Load() > 0 {
		t.Fatalf("%d of 20 runs produced wrong counts (want %d each)", bad.Load(), want)
	}
}
