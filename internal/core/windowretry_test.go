package core

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"dualsim/internal/faultdb"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// TestWindowRetryAbsorbsTransientFault: a transient fault that outlives the
// read-level retry budget no longer fails the run — the engine retries the
// window and the counts stay exact (failed attempts' partial counts are
// discarded, so no double counting).
func TestWindowRetryAbsorbsTransientFault(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	g := randomGraph(rng, 150, 900)
	db := buildDB(t, g, 128)
	want := wantCount(t, g, graph.Clique4())

	// Pages 0 and 5 fail their first 3 reads. The read layer retries once
	// (2 reads per window attempt), so the first window attempt exhausts
	// its budget; the window retry's re-read (reads 3 then 4) recovers.
	fdb := faultdb.Wrap(db, faultdb.Options{}).TransientPages(3, 0, 5)
	eng, err := NewEngine(fdb, Options{
		Threads:          2,
		BufferFrames:     16,
		Retry:            fastRetry(1, 1),
		WindowRetries:    3,
		WindowRetrySleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	res, err := eng.Run(graph.Clique4())
	if err != nil {
		t.Fatalf("window retry should have absorbed the fault: %v", err)
	}
	if res.Count != want {
		t.Fatalf("count = %d, want %d (window retry must not double or drop counts)", res.Count, want)
	}
	if res.WindowRetries == 0 {
		t.Fatal("expected at least one window retry")
	}
	if eng.PinnedFrames() != 0 {
		t.Fatalf("%d frames still pinned after a retried run", eng.PinnedFrames())
	}
}

// TestWindowRetryExhaustionFails: a fault that never heals fails the run
// after exactly (WindowRetries+1) window attempts of (MaxRetries+1) reads
// each, surfaces as transient, and leaves the engine clean and reusable.
func TestWindowRetryExhaustionFails(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	g := randomGraph(rng, 120, 700)
	db := buildDB(t, g, 256)
	want := wantCount(t, g, graph.Triangle())

	const windowRetries, maxRetries = 2, 1
	fdb := faultdb.Wrap(db, faultdb.Options{}).TransientPages(1<<30, 0)
	eng, err := NewEngine(fdb, Options{
		Threads:          2,
		BufferFrames:     16,
		Retry:            fastRetry(maxRetries, 1),
		WindowRetries:    windowRetries,
		WindowRetrySleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	_, err = eng.Run(graph.Triangle())
	if err == nil {
		t.Fatal("expected the run to fail once window retries exhausted")
	}
	if !storage.IsTransient(err) {
		t.Fatalf("exhaustion must preserve the transient cause, got %v", err)
	}
	if got, wantReads := fdb.PageReads(0), int64((windowRetries+1)*(maxRetries+1)); got != wantReads {
		t.Fatalf("page 0 read %d times, want exactly %d ((window attempts) x (read attempts))", got, wantReads)
	}
	if eng.PinnedFrames() != 0 {
		t.Fatalf("%d frames still pinned after retry exhaustion", eng.PinnedFrames())
	}

	// The engine must be reusable after the device heals.
	fdb.Heal()
	res, err := eng.Run(graph.Triangle())
	if err != nil {
		t.Fatalf("after healing: %v", err)
	}
	if res.Count != want {
		t.Fatalf("after healing: count = %d, want %d", res.Count, want)
	}
}

// TestWindowRetryDoesNotRetryCorruption: permanent faults (a CRC failure no
// re-read clears) must fail fast — window retry is for transient faults
// only.
func TestWindowRetryDoesNotRetryCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := randomGraph(rng, 120, 700)
	db := buildDB(t, g, 256)

	fdb := faultdb.Wrap(db, faultdb.Options{}).BitFlip(0)
	eng, err := NewEngine(fdb, Options{
		Threads:          2,
		BufferFrames:     16,
		Retry:            fastRetry(1, 1),
		WindowRetries:    5,
		WindowRetrySleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	_, err = eng.Run(graph.Triangle())
	var ce *storage.CorruptPageError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want CorruptPageError", err)
	}
	// CRCRetries=1: one read plus one re-read, and NO window-level retry.
	if got := fdb.PageReads(0); got != 2 {
		t.Fatalf("page 0 read %d times, want 2 (corruption must not trigger window retry)", got)
	}
}

// TestRetryBackoffComposition (ISSUE 6 satellite): the read-level and
// window-level backoffs compose with a bounded total wait — per window,
// read backoff is capped at attempts*MaxRetries*MaxDelay and window backoff
// at the geometric sum clipped to windowRetryMaxBackoff.
func TestRetryBackoffComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	g := randomGraph(rng, 120, 700)
	db := buildDB(t, g, 256)

	const windowRetries, maxRetries = 6, 2
	const maxDelay = 4 * time.Millisecond
	var readSleep, windowSleep atomic.Int64
	fdb := faultdb.Wrap(db, faultdb.Options{}).TransientPages(1<<30, 0)
	eng, err := NewEngine(fdb, Options{
		Threads:      2,
		BufferFrames: 16,
		Retry: &storage.RetryPolicy{
			MaxRetries: maxRetries,
			BaseDelay:  time.Millisecond,
			MaxDelay:   maxDelay,
			Sleep:      func(d time.Duration) { readSleep.Add(int64(d)) },
		},
		WindowRetries:    windowRetries,
		WindowRetrySleep: func(d time.Duration) { windowSleep.Add(int64(d)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if _, err := eng.Run(graph.Triangle()); err == nil {
		t.Fatal("expected failure against a never-healing page")
	}
	if got, want := fdb.PageReads(0), int64((windowRetries+1)*(maxRetries+1)); got != want {
		t.Fatalf("page 0 read %d times, want exactly %d", got, want)
	}
	// Window backoff is deterministic: it doubles from windowRetryBackoff
	// and the last of the six attempts is clipped to windowRetryMaxBackoff.
	var want time.Duration
	for i, d := 0, windowRetryBackoff; i < windowRetries; i, d = i+1, 2*d {
		want += min(d, windowRetryMaxBackoff)
	}
	if got := time.Duration(windowSleep.Load()); got != want {
		t.Fatalf("window backoff slept %v, want exactly %v", got, want)
	}
	// Read backoff is jittered but hard-capped per sleep by MaxDelay.
	readCap := time.Duration((windowRetries+1)*maxRetries) * maxDelay
	if got := time.Duration(readSleep.Load()); got > readCap {
		t.Fatalf("read backoff slept %v, cap is %v: total wait is unbounded", got, readCap)
	}
}

// TestWindowRetryAbsorbedErrorKeepsTasksAlive: regression for an undercount
// race. While a deeper-level window load holds a pending transient error
// (set by fail, later absorbed by loadWindowWithRetry), concurrently queued
// enumeration tasks for OTHER windows must still run — a task that skips on
// a later-absorbed error is never re-dispatched, so the run would complete
// "successfully" with missing counts. High fault rate + many threads makes
// the overlap near-certain across the seed sweep.
func TestWindowRetryAbsorbedErrorKeepsTasksAlive(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	g := randomGraph(rng, 150, 900)
	db := buildDB(t, g, 128)
	want := wantCount(t, g, graph.Clique4())

	for seed := int64(0); seed < 8; seed++ {
		fdb := faultdb.Wrap(db, faultdb.Options{Seed: 5000 + seed}).FailRandom(0.30, nil)
		eng, err := NewEngine(fdb, Options{
			Threads:          4,
			BufferFrames:     16,
			Retry:            fastRetry(3, 1),
			WindowRetries:    64,
			WindowRetrySleep: func(time.Duration) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(graph.Clique4())
		eng.Close()
		if err != nil {
			t.Fatalf("seed %d: retry layers should have absorbed the storm: %v", seed, err)
		}
		if res.Count != want {
			t.Fatalf("seed %d: count = %d, want %d (absorbed error dropped in-flight tasks)", seed, res.Count, want)
		}
		if res.WindowRetries == 0 {
			t.Fatalf("seed %d: no window retries absorbed; the test is vacuous", seed)
		}
	}
}

// TestWindowRetryUnderRandomFaults: a seeded random transient-fault storm
// absorbed entirely by the two retry layers still produces exact counts.
func TestWindowRetryUnderRandomFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	g := randomGraph(rng, 150, 900)
	db := buildDB(t, g, 128)
	want := wantCount(t, g, graph.Clique4())

	fdb := faultdb.Wrap(db, faultdb.Options{Seed: 4242}).FailRandom(0.05, nil)
	eng, err := NewEngine(fdb, Options{
		Threads:          3,
		BufferFrames:     16,
		Retry:            fastRetry(2, 1),
		WindowRetries:    8,
		WindowRetrySleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	res, err := eng.Run(graph.Clique4())
	if err != nil {
		t.Fatalf("retry layers should have absorbed the storm: %v", err)
	}
	if res.Count != want {
		t.Fatalf("count = %d, want %d", res.Count, want)
	}
	if fdb.Stats().Injected == 0 {
		t.Fatal("fixture injected no faults; the test is vacuous")
	}
}
