package buffer

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dualsim/internal/storage"
)

func TestPinContextPreCanceled(t *testing.T) {
	db := testDB(t, 100, 300, 256, 20)
	p, err := NewPool(db, Options{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sc := attribute(p)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.PinContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if p.PinnedCount() != 0 {
		t.Fatalf("canceled pin left %d pinned frames", p.PinnedCount())
	}
	if st := sc.Profile(); st.PagesRead != 0 {
		t.Fatalf("canceled pin performed %d physical reads", st.PagesRead)
	}
	// The pool stays usable.
	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	p.Unpin(0)
}

func TestPinContextCancelDuringLatency(t *testing.T) {
	db := testDB(t, 100, 300, 256, 21)
	p, err := NewPool(db, Options{Frames: 4, PerPageLatency: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := p.PinContext(ctx, 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("cancel did not cut the simulated latency short (%v)", elapsed)
	}
	if p.PinnedCount() != 0 {
		t.Fatalf("canceled pin left %d pinned frames", p.PinnedCount())
	}
	// The frame was recycled: a fresh Pin of the same page succeeds.
	if _, err := p.PinContext(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	p.Unpin(0)
}

// TestPinContextCancelSparesWaiters: a caller canceled while its load sleeps
// the device delay gets its cancellation, but a caller waiting on the same
// frame gets the page.
func TestPinContextCancelSparesWaiters(t *testing.T) {
	db := testDB(t, 100, 300, 256, 25)
	p, err := NewPool(db, Options{Frames: 4, PerPageLatency: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	pins := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		if idx, ok := p.table[0]; ok {
			return p.frames[idx].pins
		}
		return 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	loader, waiter := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := p.PinContext(ctx, 0)
		loader <- err
	}()
	for pins() < 1 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		_, err := p.PinContext(context.Background(), 0)
		waiter <- err
	}()
	for pins() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-loader; !errors.Is(err, context.Canceled) {
		t.Fatalf("the canceled loader: want context.Canceled, got %v", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("the waiter failed with the loader's cancellation: %v", err)
	}
	p.Unpin(0)
	if p.PinnedCount() != 0 {
		t.Fatalf("%d pinned frames left", p.PinnedCount())
	}
}

func TestPinContextDeadline(t *testing.T) {
	db := testDB(t, 100, 300, 256, 22)
	p, err := NewPool(db, Options{Frames: 4, PerPageLatency: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.PinContext(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if p.PinnedCount() != 0 {
		t.Fatalf("timed-out pin left %d pinned frames", p.PinnedCount())
	}
}

func TestAsyncReadContextCanceled(t *testing.T) {
	db := testDB(t, 100, 300, 256, 23)
	p, err := NewPool(db, Options{Frames: db.NumPages(), IOWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sc := attribute(p)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	for pid := 0; pid < db.NumPages(); pid++ {
		wg.Add(1)
		p.AsyncReadRunContext(ctx, storage.PageID(pid), 1, &wg, func(_ storage.PageID, page *storage.Page, err error) {
			mu.Lock()
			defer mu.Unlock()
			if page != nil {
				errs = append(errs, errors.New("got a page for a canceled request"))
			}
			errs = append(errs, err)
		})
	}
	wg.Wait()
	for _, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled from every callback, got %v", err)
		}
	}
	if p.PinnedCount() != 0 {
		t.Fatalf("canceled async reads left %d pinned frames", p.PinnedCount())
	}
	if st := sc.Profile(); st.PagesRead != 0 {
		t.Fatalf("canceled async reads performed %d physical reads", st.PagesRead)
	}
}

func TestAsyncReadContextMixedCancellation(t *testing.T) {
	// Cancel midway through a batch: every callback fires (wg drains), each
	// either delivering a page or context.Canceled, and unpinning the
	// successes leaves the pool clean.
	db := testDB(t, 300, 1200, 128, 24)
	p, err := NewPool(db, Options{Frames: db.NumPages(), IOWorkers: 2, PerPageLatency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	loaded := map[storage.PageID]bool{}
	var canceled int
	for pid := 0; pid < db.NumPages(); pid++ {
		wg.Add(1)
		pid := storage.PageID(pid)
		p.AsyncReadRunContext(ctx, pid, 1, &wg, func(_ storage.PageID, page *storage.Page, err error) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				loaded[pid] = true
			case errors.Is(err, context.Canceled):
				canceled++
			default:
				t.Errorf("page %d: unexpected error %v", pid, err)
			}
		})
		if pid == 3 {
			cancel()
		}
	}
	wg.Wait()
	for pid := range loaded {
		p.Unpin(pid)
	}
	if p.PinnedCount() != 0 {
		t.Fatalf("%d pinned frames remain after drain", p.PinnedCount())
	}
	if len(loaded)+canceled != db.NumPages() {
		t.Fatalf("callbacks: %d loaded + %d canceled != %d pages", len(loaded), canceled, db.NumPages())
	}
}
