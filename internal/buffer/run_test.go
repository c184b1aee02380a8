package buffer

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// needPages skips the test when the generated database is smaller than n
// pages (run tests address fixed page ranges).
func needPages(t *testing.T, db *storage.DB, n int) {
	t.Helper()
	if db.NumPages() < n {
		t.Skipf("database has %d pages, need %d", db.NumPages(), n)
	}
}

func TestAsyncReadRunOrderAndCounters(t *testing.T) {
	const n = 2 * DefaultMaxRun
	db := testDB(t, 400, 2000, 128, 20)
	needPages(t, db, n)
	// One worker: requests are served FIFO and pages within a request in
	// ascending order, so the delivery order is fully deterministic.
	p, err := NewPool(db, Options{Frames: n, IOWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sc := attribute(p)

	var mu sync.Mutex
	var order []storage.PageID
	var wg sync.WaitGroup
	wg.Add(n)
	p.AsyncReadRunContext(context.Background(), 0, n, &wg, func(pid storage.PageID, page *storage.Page, err error) {
		if err != nil {
			t.Errorf("page %d: %v", pid, err)
			return
		}
		if page.ID != pid {
			t.Errorf("callback pid %d carries page %d", pid, page.ID)
		}
		mu.Lock()
		order = append(order, pid)
		mu.Unlock()
	})
	wg.Wait()

	if len(order) != n {
		t.Fatalf("delivered %d pages, want %d", len(order), n)
	}
	for i, pid := range order {
		if pid != storage.PageID(i) {
			t.Fatalf("delivery order %v not ascending", order)
		}
	}
	// Twice DefaultMaxRun non-resident pages split into two coalesced
	// requests, each one contiguous load stretch.
	st := sc.Profile()
	if st.CoalescedRuns != 2 || st.CoalescedPages != n {
		t.Fatalf("coalesced runs/pages = %d/%d, want 2/%d", st.CoalescedRuns, st.CoalescedPages, n)
	}
	if st.PagesRead != n || st.LogicalReads != n || st.BufferHits != 0 {
		t.Fatalf("stats %+v", st)
	}
	for pid := storage.PageID(0); pid < n; pid++ {
		p.Unpin(pid)
	}
	if p.PinnedCount() != 0 {
		t.Fatalf("pins leaked: %d", p.PinnedCount())
	}
}

func TestRunMixedHitAndLoad(t *testing.T) {
	db := testDB(t, 400, 2000, 128, 21)
	needPages(t, db, 5)
	p, err := NewPool(db, Options{Frames: 6, IOWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Pre-pin the middle page so the run splits into two load stretches
	// around a hit.
	if _, err := p.Pin(2); err != nil {
		t.Fatal(err)
	}
	sc := attribute(p)

	var wg sync.WaitGroup
	wg.Add(5)
	p.AsyncReadRunContext(context.Background(), 0, 5, &wg, func(pid storage.PageID, _ *storage.Page, err error) {
		if err != nil {
			t.Errorf("page %d: %v", pid, err)
		}
	})
	wg.Wait()

	st := sc.Profile()
	if st.BufferHits != 1 {
		t.Fatalf("hits = %d, want 1 (pre-pinned middle page)", st.BufferHits)
	}
	if st.CoalescedRuns != 2 || st.CoalescedPages != 4 {
		t.Fatalf("coalesced runs/pages = %d/%d, want 2/4 (stretches [0,2) and [3,5))",
			st.CoalescedRuns, st.CoalescedPages)
	}
	if st.PagesRead != 4 {
		t.Fatalf("physical reads = %d, want 4", st.PagesRead)
	}
	for pid := storage.PageID(0); pid < 5; pid++ {
		p.Unpin(pid)
	}
	p.Unpin(2) // the explicit pre-pin
	if p.PinnedCount() != 0 {
		t.Fatalf("pins leaked: %d", p.PinnedCount())
	}
}

func TestRunCanceledContext(t *testing.T) {
	db := testDB(t, 200, 800, 128, 22)
	needPages(t, db, 4)
	p, err := NewPool(db, Options{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	wg.Add(4)
	var mu sync.Mutex
	errs := 0
	p.AsyncReadRunContext(ctx, 0, 4, &wg, func(_ storage.PageID, page *storage.Page, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs++
		}
		if page != nil {
			t.Error("canceled request delivered a page")
		}
	})
	wg.Wait()
	if errs != 4 {
		t.Fatalf("%d errors, want 4 (context canceled before dequeue)", errs)
	}
	if p.PinnedCount() != 0 {
		t.Fatalf("pins leaked: %d", p.PinnedCount())
	}
}

func TestRunOutOfRangeLeaksNothing(t *testing.T) {
	db := testDB(t, 200, 800, 128, 23)
	needPages(t, db, 2)
	p, err := NewPool(db, Options{Frames: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// A run straddling the end of the database fails its device read; every
	// failed page must be delivered with an error and no pin.
	first := storage.PageID(db.NumPages() - 2)
	var wg sync.WaitGroup
	wg.Add(4)
	var mu sync.Mutex
	errs := 0
	got := map[storage.PageID]bool{}
	p.AsyncReadRunContext(context.Background(), first, 4, &wg, func(pid storage.PageID, _ *storage.Page, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs++
		} else {
			got[pid] = true
		}
	})
	wg.Wait()
	if errs == 0 {
		t.Fatal("out-of-range run reported no errors")
	}
	for pid := range got {
		p.Unpin(pid)
	}
	if p.PinnedCount() != 0 {
		t.Fatalf("pins leaked: %d", p.PinnedCount())
	}
	// Failed pages must not stay resident, or retries would return the error
	// forever.
	if p.Resident(storage.PageID(db.NumPages())) {
		t.Fatal("out-of-range page left resident")
	}
}

func TestRunPerPageFallbackWithoutRunReader(t *testing.T) {
	db := testDB(t, 200, 800, 128, 24)
	needPages(t, db, 4)
	// pageOnlyReader hides the RunReader implementation, forcing the
	// per-page read path inside readStretch.
	p, err := NewPool(pageOnlyReader{db}, Options{Frames: 4, IOWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sc := attribute(p)

	var wg sync.WaitGroup
	wg.Add(4)
	p.AsyncReadRunContext(context.Background(), 0, 4, &wg, func(pid storage.PageID, page *storage.Page, err error) {
		if err != nil {
			t.Errorf("page %d: %v", pid, err)
		} else if page.ID != pid {
			t.Errorf("page %d served as %d", pid, page.ID)
		}
	})
	wg.Wait()
	// Still one coalesced stretch (the latency amortization applies even
	// without a multi-page device request).
	if st := sc.Profile(); st.CoalescedRuns != 1 || st.CoalescedPages != 4 {
		t.Fatalf("coalesced runs/pages = %d/%d, want 1/4", st.CoalescedRuns, st.CoalescedPages)
	}
	for pid := storage.PageID(0); pid < 4; pid++ {
		p.Unpin(pid)
	}
}

// pageOnlyReader wraps a DB exposing only the single-page interface.
type pageOnlyReader struct{ db *storage.DB }

func (r pageOnlyReader) ReadPageInto(pid storage.PageID, buf []byte) error {
	return r.db.ReadPageInto(pid, buf)
}
func (r pageOnlyReader) PageSize() int { return r.db.PageSize() }
func (r pageOnlyReader) NumPages() int { return r.db.NumPages() }

// TestCloseAsyncReadStress is the regression test for the shutdown race:
// the enqueue used to check closed and then send on ioq without
// synchronization, so a concurrent Close could close the
// channel between the two steps and panic "send on closed channel". With
// shutMu the send either wins (request served before workers exit) or
// loses (callback fires with ErrPoolClosed); it never panics. Run with
// -race.
func TestCloseAsyncReadStress(t *testing.T) {
	db := testDB(t, 200, 800, 128, 25)
	needPages(t, db, 4)
	for iter := 0; iter < 50; iter++ {
		// Slow workers back the queue up so senders are blocked in the
		// channel send when Close lands — the seed's widest panic window.
		p, err := NewPool(db, Options{Frames: 8, IOWorkers: 2, PerPageLatency: 100 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		const senders = 4
		const perSender = 16
		var wg sync.WaitGroup // balances every callback, served or rejected
		wg.Add(senders * perSender)
		var mu sync.Mutex
		delivered := 0
		pins := map[storage.PageID]int{}
		start := make(chan struct{})
		var sendersDone sync.WaitGroup
		for s := 0; s < senders; s++ {
			sendersDone.Add(1)
			go func(s int) {
				defer sendersDone.Done()
				<-start
				for j := 0; j < perSender; j++ {
					pid := storage.PageID((s + j) % 4)
					p.AsyncReadRunContext(context.Background(), pid, 1, &wg, func(_ storage.PageID, page *storage.Page, err error) {
						mu.Lock()
						delivered++
						if err == nil {
							pins[page.ID]++
						} else if !errors.Is(err, ErrPoolClosed) {
							t.Errorf("unexpected error: %v", err)
						}
						mu.Unlock()
					})
				}
			}(s)
		}
		close(start)
		// Close concurrently with the senders: some requests are served,
		// some rejected, none may panic or be dropped.
		if iter%2 == 1 {
			time.Sleep(50 * time.Microsecond)
		}
		p.Close()
		sendersDone.Wait()
		wg.Wait()
		if delivered != senders*perSender {
			t.Fatalf("iter %d: %d callbacks, want %d", iter, delivered, senders*perSender)
		}
		for pid, n := range pins {
			for i := 0; i < n; i++ {
				p.Unpin(pid)
			}
		}
		if p.PinnedCount() != 0 {
			t.Fatalf("iter %d: pins leaked", iter)
		}
	}
}

// TestCloseAsyncRunStress is the run-request variant of the shutdown
// stress: AsyncReadRunContext enqueues several chunks, so Close can land
// between chunks and the remainder must be rejected page by page.
func TestCloseAsyncRunStress(t *testing.T) {
	const n = 4 * DefaultMaxRun
	db := testDB(t, 400, 2000, 128, 26)
	needPages(t, db, n)
	for iter := 0; iter < 30; iter++ {
		p, err := NewPool(db, Options{Frames: 2 * n, IOWorkers: 2, PerPageLatency: 100 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(n * 2)
		var mu sync.Mutex
		delivered := 0
		pins := map[storage.PageID]int{}
		cb := func(pid storage.PageID, page *storage.Page, err error) {
			mu.Lock()
			delivered++
			if err == nil {
				pins[page.ID]++
			} else if !errors.Is(err, ErrPoolClosed) {
				t.Errorf("unexpected error: %v", err)
			}
			mu.Unlock()
		}
		var sendersDone sync.WaitGroup
		sendersDone.Add(2)
		for s := 0; s < 2; s++ {
			go func() {
				defer sendersDone.Done()
				p.AsyncReadRunContext(context.Background(), 0, n, &wg, cb)
			}()
		}
		p.Close()
		sendersDone.Wait()
		wg.Wait()
		if delivered != 2*n {
			t.Fatalf("iter %d: %d callbacks, want %d", iter, delivered, 2*n)
		}
		for pid, n := range pins {
			for i := 0; i < n; i++ {
				p.Unpin(pid)
			}
		}
		if p.PinnedCount() != 0 {
			t.Fatalf("iter %d: pins leaked", iter)
		}
	}
}

// TestAcquireFrameSkipsRePinned covers the eviction queue's lazy
// validation: an evictable entry whose frame was re-pinned after being
// enqueued must be skipped, and with every frame pinned the pool reports
// ErrNoFreeFrame rather than evicting a pinned page.
func TestAcquireFrameSkipsRePinned(t *testing.T) {
	db := testDB(t, 200, 800, 128, 27)
	needPages(t, db, 3)
	p, err := NewPool(db, Options{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sc := attribute(p)

	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pin(1); err != nil {
		t.Fatal(err)
	}
	// Enqueue page 0's frame, then re-pin it: the queue entry is now stale.
	p.Unpin(0)
	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	if st := sc.Profile(); st.BufferHits != 1 {
		t.Fatalf("re-pin was not a hit: %+v", st)
	}
	// Both frames pinned; the stale entry must be skipped, not evicted.
	if _, err := p.Pin(2); !errors.Is(err, ErrNoFreeFrame) {
		t.Fatalf("want ErrNoFreeFrame, got %v", err)
	}
	if ev := p.Evictions(); ev != 0 {
		t.Fatalf("evictions = %d, want 0 (nothing was evictable)", ev)
	}
	if !p.Resident(0) || !p.Resident(1) {
		t.Fatal("pinned pages went missing")
	}
	p.Unpin(0)
	p.Unpin(1)
}

// TestAcquireFrameDuplicateEntries drives the duplicate-entry path: a
// pin/unpin cycle on an already-enqueued frame appends it to the eviction
// queue twice; the second (stale after the first eviction reuses the
// frame) entry must not evict the newly loaded page.
func TestAcquireFrameDuplicateEntries(t *testing.T) {
	db := testDB(t, 200, 800, 128, 28)
	needPages(t, db, 3)
	p, err := NewPool(db, Options{Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	p.Unpin(0) // queue: [f0]
	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	p.Unpin(0) // queue: [f0, f0]

	// First entry evicts page 0 and loads page 1 into the frame.
	if _, err := p.Pin(1); err != nil {
		t.Fatal(err)
	}
	if ev := p.Evictions(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	// The duplicate entry now references the frame holding pinned page 1 —
	// acquiring must skip it and fail, not evict a pinned page.
	if _, err := p.Pin(2); !errors.Is(err, ErrNoFreeFrame) {
		t.Fatalf("want ErrNoFreeFrame, got %v", err)
	}
	if !p.Resident(1) {
		t.Fatal("pinned page 1 was evicted through a duplicate queue entry")
	}
	p.Unpin(1)
	// Unpinned, the frame is evictable again (via the re-appended entry).
	if _, err := p.Pin(2); err != nil {
		t.Fatal(err)
	}
	if ev := p.Evictions(); ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
	}
	p.Unpin(2)
}

// TestAcquireFrameSlowRescan forces the fallback full-table rescan: the
// eviction queue can transiently under-represent evictable frames (entries
// are consumed by pops that skip re-pinned frames), so an empty queue must
// not be taken as "nothing evictable". The test clears the queue directly
// to model that state.
func TestAcquireFrameSlowRescan(t *testing.T) {
	db := testDB(t, 200, 800, 128, 29)
	needPages(t, db, 3)
	p, err := NewPool(db, Options{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pin(1); err != nil {
		t.Fatal(err)
	}
	p.Unpin(0)
	// Simulate the queue having consumed page 0's entry without evicting.
	p.mu.Lock()
	p.evictable = p.evictable[:0]
	p.mu.Unlock()

	// Free list empty, queue empty, yet frame 0 is evictable: only the
	// rescan can find it.
	if _, err := p.Pin(2); err != nil {
		t.Fatalf("rescan failed to find the unpinned frame: %v", err)
	}
	if p.Resident(0) {
		t.Fatal("page 0 should have been evicted by the rescan")
	}
	if ev := p.Evictions(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	p.Unpin(1)
	p.Unpin(2)
}

// TestFailedLoadFreesFrame checks the failed-load lifecycle acquireFrame
// depends on: a frame whose load errored returns to the free list (not the
// eviction queue) and its table entry is dropped so a retry re-reads.
func TestFailedLoadFreesFrame(t *testing.T) {
	db := testDB(t, 200, 800, 128, 30)
	needPages(t, db, 2)
	p, err := NewPool(db, Options{Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	bad := storage.PageID(db.NumPages() + 7)
	if _, err := p.Pin(bad); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
	if p.Resident(bad) {
		t.Fatal("failed load left resident")
	}
	// The frame must be immediately reusable without an eviction.
	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	if ev := p.Evictions(); ev != 0 {
		t.Fatalf("evictions = %d, want 0 (failed load frees, not evicts)", ev)
	}
	p.Unpin(0)
}

// TestPinIsRunOfOne holds the two entry points to one path: Pin and an
// asynchronous run of one must leave the same counters, the same pins and
// the same error behind, whatever the page's state.
func TestPinIsRunOfOne(t *testing.T) {
	db := testDB(t, 200, 800, 128, 27)
	needPages(t, db, 3)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	pinOther := func(p *Pool) {
		for _, pid := range []storage.PageID{1, 2} {
			if _, err := p.Pin(pid); err != nil {
				t.Fatal(err)
			}
		}
	}
	type outcome struct {
		stats  obs.CostProfile
		pinned int
		page   storage.PageID
		err    error
	}
	const none = ^storage.PageID(0)
	entries := map[string]func(*Pool, context.Context) (*storage.Page, error){
		"pin": func(p *Pool, ctx context.Context) (*storage.Page, error) { return p.PinContext(ctx, 0) },
		"run": func(p *Pool, ctx context.Context) (page *storage.Page, err error) {
			var wg sync.WaitGroup
			wg.Add(1)
			p.AsyncReadRunContext(ctx, 0, 1, &wg, func(_ storage.PageID, pg *storage.Page, e error) { page, err = pg, e })
			wg.Wait()
			return page, err
		},
	}
	for _, c := range []struct {
		name    string
		ctx     context.Context
		prepare func(*Pool) // the pool's state before page 0 is read
		want    outcome
	}{
		{"miss", context.Background(), func(*Pool) {},
			outcome{obs.CostProfile{LogicalReads: 1, PagesRead: 1}, 1, 0, nil}},
		{"hit", context.Background(), func(p *Pool) {
			if _, err := p.Pin(0); err != nil {
				t.Fatal(err)
			}
			p.Unpin(0)
		}, outcome{obs.CostProfile{LogicalReads: 1, BufferHits: 1}, 1, 0, nil}},
		{"no free frame", context.Background(), pinOther,
			outcome{obs.CostProfile{LogicalReads: 1}, 2, none, ErrNoFreeFrame}},
		{"canceled", canceled, func(*Pool) {},
			outcome{obs.CostProfile{}, 0, none, context.Canceled}},
		{"closed", context.Background(), (*Pool).Close,
			outcome{obs.CostProfile{}, 0, none, ErrPoolClosed}},
	} {
		for name, read := range entries {
			p, err := NewPool(db, Options{Frames: 2})
			if err != nil {
				t.Fatal(err)
			}
			c.prepare(p)
			sc := attribute(p)
			got := outcome{page: none}
			page, err := read(p, c.ctx)
			if page != nil {
				got.page = page.ID
			}
			got.stats, got.pinned, got.err = sc.Profile(), p.PinnedCount(), err
			if got != c.want {
				t.Errorf("%s via %s: %+v, want %+v", c.name, name, got, c.want)
			}
			p.Close()
		}
	}
}

var errDevice = errors.New("device error")

// failingReader serves db's page size and count through a device that fails
// every read or, with garbage set, returns zeroed bytes that do not parse.
type failingReader struct {
	pageOnlyReader
	garbage bool
}

func (r failingReader) ReadPageInto(_ storage.PageID, buf []byte) error {
	if clear(buf); r.garbage {
		return nil
	}
	return errDevice
}

// failingRuns is failingReader with the multi-page device request.
type failingRuns struct{ failingReader }

func (r failingRuns) ReadPagesInto(pid storage.PageID, buf []byte) error {
	return r.ReadPageInto(pid, buf)
}

// TestFailedReadCounts holds both branches of readStretch to one rule: a page
// counts as read once the device returned its bytes, whether or not they
// parse, and a device error reads nothing — for a run reader's stretches of
// 1, 2 and 4 pages and for a reader of single pages.
func TestFailedReadCounts(t *testing.T) {
	db := testDB(t, 200, 800, 128, 31)
	needPages(t, db, 4)
	for _, c := range []struct {
		r    PageReader
		read bool
	}{
		{failingRuns{failingReader{pageOnlyReader{db}, false}}, false},
		{failingReader{pageOnlyReader{db}, false}, false},
		{failingRuns{failingReader{pageOnlyReader{db}, true}}, true},
	} {
		for _, n := range []int{1, 2, 4} {
			p, err := NewPool(c.r, Options{Frames: 4, IOWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			sc, failed := attribute(p), 0
			var wg sync.WaitGroup
			wg.Add(n)
			p.AsyncReadRunContext(context.Background(), 0, n, &wg, func(_ storage.PageID, _ *storage.Page, err error) {
				if err != nil {
					failed++
				}
			})
			wg.Wait()
			want := 0
			if c.read {
				want = n
			}
			if got := sc.PagesRead.Load(); got != uint64(want) || failed != n || p.PinnedCount() != 0 {
				t.Errorf("%+v, %d pages: %d read (want %d), %d of %d failed, %d pinned", c.r, n, got, want, failed, n, p.PinnedCount())
			}
			p.Close()
		}
	}
}
