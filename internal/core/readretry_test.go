package core

import (
	"errors"
	"math/rand"
	"testing"

	"dualsim/internal/faultdb"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// The read path (Options.Retry → storage.RetryReader) is the engine's only
// recovery layer: a read error that outlives its budget fails the run. A
// budget of (m+1)(w+1)−1 retries gives every page at least the read attempts
// that m read retries under w whole-window reloads gave it; the budgets below
// are written that way.

// TestReadRetryExhaustionFails: a fault that never heals fails the run after
// exactly MaxRetries+1 reads of the page, surfaces as transient, and leaves
// the engine clean and reusable.
func TestReadRetryExhaustionFails(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	g := randomGraph(rng, 120, 700)
	db := buildDB(t, g, 256)
	want := wantCount(t, g, graph.Triangle())

	const maxRetries = (1+1)*(2+1) - 1
	fdb := faultdb.Wrap(db, faultdb.Options{}).TransientPages(1<<30, 0)
	eng, err := NewEngine(fdb, Options{
		Threads:      2,
		BufferFrames: 16,
		Retry:        fastRetry(maxRetries, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	_, err = eng.Run(graph.Triangle())
	if err == nil {
		t.Fatal("expected the run to fail once the read budget is exhausted")
	}
	if !storage.IsTransient(err) {
		t.Fatalf("exhaustion must preserve the transient cause, got %v", err)
	}
	if got := fdb.PageReads(0); got != maxRetries+1 {
		t.Fatalf("page 0 read %d times, want exactly %d", got, maxRetries+1)
	}
	if eng.PinnedFrames() != 0 {
		t.Fatalf("%d frames still pinned after retry exhaustion", eng.PinnedFrames())
	}

	fdb.Heal()
	res, err := eng.Run(graph.Triangle())
	if err != nil {
		t.Fatalf("after healing: %v", err)
	}
	if res.Count != want {
		t.Fatalf("after healing: count = %d, want %d", res.Count, want)
	}
}

// TestReadRetryDoesNotRetryCorruption: a CRC failure no re-read clears fails
// fast after its CRC re-read, however large the transient budget.
func TestReadRetryDoesNotRetryCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := randomGraph(rng, 120, 700)
	db := buildDB(t, g, 256)

	fdb := faultdb.Wrap(db, faultdb.Options{}).BitFlip(0)
	eng, err := NewEngine(fdb, Options{
		Threads:      2,
		BufferFrames: 16,
		Retry:        fastRetry((1+1)*(5+1)-1, 1),
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
	if got := fdb.PageReads(0); got != 2 {
		t.Fatalf("page 0 read %d times, want 2 (one read, one CRC re-read)", got)
	}
}
