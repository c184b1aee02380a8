package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dualsim/internal/faultdb"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// fastRetry is a retry policy that never sleeps, for deterministic tests.
func fastRetry(maxRetries, crcRetries int) *storage.RetryPolicy {
	return &storage.RetryPolicy{
		MaxRetries: maxRetries,
		CRCRetries: crcRetries,
		Sleep:      func(time.Duration) {},
	}
}

func wantCount(t *testing.T, g *graph.Graph, q *graph.Query) uint64 {
	t.Helper()
	rg, _ := graph.ReorderByDegree(g)
	return graph.CountOccurrences(rg, q)
}

func TestEngineSurfacesReadErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomGraph(rng, 200, 1200)
	db := buildDB(t, g, 128)
	boom := errors.New("injected disk failure")

	// Fail at various points in the run: first read, mid-run, near the end.
	for _, failAfter := range []int64{0, 3, 25, 200} {
		fdb := faultdb.Wrap(db, faultdb.Options{}).FailAfter(failAfter, boom)
		eng, err := NewEngine(fdb, Options{Threads: 3, BufferFrames: 16})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Run(graph.Clique4())
		eng.Close()
		if err == nil {
			// Legitimate only if the whole query needed <= failAfter reads.
			if failAfter < 5 {
				t.Fatalf("failAfter=%d: expected injected error", failAfter)
			}
			continue
		}
		if !errors.Is(err, boom) {
			t.Fatalf("failAfter=%d: got %v, want injected error", failAfter, err)
		}
	}
}

func TestEngineRetryExhaustion(t *testing.T) {
	// A page that never heals must exhaust the budget and surface the
	// transient cause, not hang or succeed.
	rng := rand.New(rand.NewSource(81))
	g := randomGraph(rng, 100, 500)
	db := buildDB(t, g, 256)
	fdb := faultdb.Wrap(db, faultdb.Options{}).TransientPages(1<<30, 0)

	const maxRetries = 2
	eng, err := NewEngine(fdb, Options{Threads: 2, BufferFrames: 16, Retry: fastRetry(maxRetries, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, err = eng.Run(graph.Triangle())
	if !errors.Is(err, faultdb.ErrInjected) {
		t.Fatalf("want the injected cause in the chain, got %v", err)
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("error does not name the exhausted budget: %v", err)
	}
	if got := fdb.PageReads(0); got != maxRetries+1 {
		t.Fatalf("page 0 read %d times, want exactly %d (1 + %d retries)", got, maxRetries+1, maxRetries)
	}
	if st := eng.RetryStats(); st.Exhausted == 0 {
		t.Fatalf("exhaustion not counted: %+v", st)
	}
}

func TestEngineCorruptPageSurfacesTypedError(t *testing.T) {
	// A persistently bit-flipped page must surface a *CorruptPageError
	// naming the page, after exactly the configured CRC re-read budget.
	rng := rand.New(rand.NewSource(82))
	g := randomGraph(rng, 100, 500)
	db := buildDB(t, g, 256)
	bad := storage.PageID(db.NumPages() / 2)
	fdb := faultdb.Wrap(db, faultdb.Options{}).BitFlip(bad)

	const crcRetries = 2
	eng, err := NewEngine(fdb, Options{Threads: 2, BufferFrames: 16, Retry: fastRetry(3, crcRetries)})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, err = eng.Run(graph.Triangle())
	ce, ok := storage.IsCorrupt(err)
	if !ok {
		t.Fatalf("want *CorruptPageError, got %v", err)
	}
	if ce.Page != bad {
		t.Fatalf("corruption names page %d, want %d", ce.Page, bad)
	}
	if ce.StoredCRC == ce.ComputedCRC {
		t.Fatalf("corruption error carries no CRC evidence: %+v", ce)
	}
	if got := fdb.PageReads(bad); got != crcRetries+1 {
		t.Fatalf("page %d read %d times, want exactly %d (1 + %d CRC re-reads)",
			bad, got, crcRetries+1, crcRetries)
	}
}

func TestEngineVertexSpanExceedsBudget(t *testing.T) {
	// One huge hub on tiny pages with a minimal buffer: the hub's span
	// cannot fit a level's budget, and the engine must say so clearly.
	var edges [][2]graph.VertexID
	for i := 1; i <= 600; i++ {
		edges = append(edges, [2]graph.VertexID{0, graph.VertexID(i)})
		edges = append(edges, [2]graph.VertexID{graph.VertexID(i), graph.VertexID(i%600 + 1)})
	}
	g := graph.MustNewGraph(601, edges)
	db := buildDB(t, g, 64) // ~9 entries per page: hub spans ~60 pages
	eng, err := NewEngine(db, Options{Threads: 1, BufferFrames: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, err = eng.Run(graph.Triangle())
	if err == nil {
		t.Fatal("expected span-exceeds-budget error")
	}
	if !strings.Contains(err.Error(), "increase the buffer") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestEngineErrorsDoNotPoisonPool(t *testing.T) {
	// After a failed or canceled run, the pool must have zero pinned frames
	// so later runs see the full buffer, and the engine must stay usable.
	rng := rand.New(rand.NewSource(79))
	g := randomGraph(rng, 150, 900)
	db := buildDB(t, g, 128)
	want := wantCount(t, g, graph.House())

	t.Run("read error", func(t *testing.T) {
		boom := errors.New("kaboom")
		fdb := faultdb.Wrap(db, faultdb.Options{}).FailAfter(10, boom)
		eng, err := NewEngine(fdb, Options{Threads: 2, BufferFrames: 14})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, err := eng.Run(graph.House()); err == nil {
			t.Fatal("expected failure")
		}
		if pinned := eng.pool.PinnedCount(); pinned != 0 {
			t.Fatalf("failed run leaked %d pinned frames", pinned)
		}
		fdb.Heal()
		res, err := eng.Run(graph.House())
		if err != nil {
			t.Fatalf("after healing: %v", err)
		}
		if res.Count != want {
			t.Fatalf("after healing: count %d, want %d", res.Count, want)
		}
	})

	t.Run("cancellation", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		fdb := faultdb.Wrap(db, faultdb.Options{
			OnRead: func(n int64, _ storage.PageID) {
				if n == 8 {
					cancel()
				}
			},
		})
		eng, err := NewEngine(fdb, Options{Threads: 2, BufferFrames: 14})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, err := eng.RunContext(ctx, graph.House()); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if pinned := eng.pool.PinnedCount(); pinned != 0 {
			t.Fatalf("canceled run leaked %d pinned frames", pinned)
		}
		res, err := eng.Run(graph.House())
		if err != nil {
			t.Fatalf("after cancellation: %v", err)
		}
		if res.Count != want {
			t.Fatalf("after cancellation: count %d, want %d", res.Count, want)
		}
	})
}

func TestRunContextPreCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	g := randomGraph(rng, 100, 500)
	db := buildDB(t, g, 256)
	fdb := faultdb.Wrap(db, faultdb.Options{})
	eng, err := NewEngine(fdb, Options{Threads: 2, BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.RunContext(ctx, graph.Triangle()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if reads := fdb.Reads(); reads != 0 {
		t.Fatalf("pre-canceled run performed %d reads", reads)
	}
	if pinned := eng.pool.PinnedCount(); pinned != 0 {
		t.Fatalf("pre-canceled run leaked %d pinned frames", pinned)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	// Cancel during the traversal at several points; every variant must
	// return context.Canceled with zero pinned frames and drained I/O.
	rng := rand.New(rand.NewSource(85))
	g := randomGraph(rng, 200, 1400)
	db := buildDB(t, g, 128)

	for _, cancelAt := range []int64{1, 5, 20, 60} {
		ctx, cancel := context.WithCancel(context.Background())
		fdb := faultdb.Wrap(db, faultdb.Options{
			OnRead: func(n int64, _ storage.PageID) {
				if n == cancelAt {
					cancel()
				}
			},
		})
		eng, err := NewEngine(fdb, Options{Threads: 3, BufferFrames: 16})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.RunContext(ctx, graph.Clique4())
		if err == nil {
			// Legitimate only if the run finished in under cancelAt reads.
			if fdb.Reads() >= cancelAt {
				t.Fatalf("cancelAt=%d: run succeeded despite cancellation", cancelAt)
			}
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelAt=%d: want context.Canceled, got %v", cancelAt, err)
		}
		if pinned := eng.pool.PinnedCount(); pinned != 0 {
			t.Fatalf("cancelAt=%d: leaked %d pinned frames", cancelAt, pinned)
		}
		eng.Close()
		cancel()
	}
}

func TestOptionsTimeout(t *testing.T) {
	// A latency spike that makes the run outlive its context's deadline must
	// turn into context.DeadlineExceeded, with the pool clean afterwards.
	rng := rand.New(rand.NewSource(86))
	g := randomGraph(rng, 200, 1400)
	db := buildDB(t, g, 128)
	fdb := faultdb.Wrap(db, faultdb.Options{}).Latency(5*time.Millisecond, 1)

	eng, err := NewEngine(fdb, Options{Threads: 2, BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = eng.RunContext(ctx, graph.Clique4())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if pinned := eng.pool.PinnedCount(); pinned != 0 {
		t.Fatalf("timed-out run leaked %d pinned frames", pinned)
	}
}

func TestEngineCancellationUnderFaultLoad(t *testing.T) {
	// Cancellation racing injected transient faults and retries: whatever
	// interleaving occurs, the run ends with a clean pool and either the
	// cancellation or an injected failure.
	rng := rand.New(rand.NewSource(87))
	g := randomGraph(rng, 200, 1400)
	db := buildDB(t, g, 128)

	for trial := int64(0); trial < 4; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		fdb := faultdb.Wrap(db, faultdb.Options{
			Seed: trial + 1,
			OnRead: func(n int64, _ storage.PageID) {
				if n == 10+trial*7 {
					cancel()
				}
			},
		}).FailRandom(0.2, nil)
		eng, err := NewEngine(fdb, Options{Threads: 3, BufferFrames: 16, Retry: fastRetry(2, 1)})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.RunContext(ctx, graph.Triangle())
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, faultdb.ErrInjected) {
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
		if pinned := eng.pool.PinnedCount(); pinned != 0 {
			t.Fatalf("trial %d: leaked %d pinned frames", trial, pinned)
		}
		eng.Close()
		cancel()
	}
}
