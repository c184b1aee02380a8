package buffer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// attribute installs a fresh scope on p, which every later pin and read of
// p counts into.
func attribute(p *Pool) *obs.Scope {
	sc := obs.NewScope("")
	p.SetAttribution(sc)
	return sc
}

// testDB builds a small database in a temp dir and opens it.
func testDB(t *testing.T, n, m, pageSize int, seed int64) *storage.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]graph.VertexID, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]graph.VertexID{
			graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)),
		})
	}
	g := graph.MustNewGraph(n, edges)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.db")
	if _, err := storage.BuildFromGraph(path, g, storage.BuildOptions{PageSize: pageSize, TempDir: dir}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPinUnpinBasic(t *testing.T) {
	db := testDB(t, 100, 300, 256, 1)
	p, err := NewPool(db, Options{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sc := attribute(p)

	page, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	if page.ID != 0 {
		t.Fatalf("page ID = %d", page.ID)
	}
	if !p.Resident(0) {
		t.Fatal("page 0 should be resident")
	}
	st := sc.Profile()
	if st.PagesRead != 1 || st.LogicalReads != 1 {
		t.Fatalf("stats after miss: %+v", st)
	}
	// Second pin: hit.
	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	st = sc.Profile()
	if st.PagesRead != 1 || st.BufferHits != 1 {
		t.Fatalf("stats after hit: %+v", st)
	}
	p.Unpin(0)
	p.Unpin(0)
}

func TestEvictionRespectsPins(t *testing.T) {
	db := testDB(t, 200, 800, 128, 2)
	if db.NumPages() < 6 {
		t.Skip("graph too small")
	}
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
	// Pool full with pinned pages: third pin must fail.
	if _, err := p.Pin(2); !errors.Is(err, ErrNoFreeFrame) {
		t.Fatalf("want ErrNoFreeFrame, got %v", err)
	}
	p.Unpin(1)
	// Now page 2 can evict page 1.
	if _, err := p.Pin(2); err != nil {
		t.Fatal(err)
	}
	if p.Resident(1) {
		t.Fatal("page 1 should be evicted")
	}
	if !p.Resident(0) || !p.Resident(2) {
		t.Fatal("pages 0 and 2 should be resident")
	}
	if ev := p.Evictions(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	p.Unpin(0)
	p.Unpin(2)
}

func TestUnpinPanicsOnMisuse(t *testing.T) {
	db := testDB(t, 50, 100, 256, 3)
	p, err := NewPool(db, Options{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	assertPanics(t, "non-resident", func() { p.Unpin(0) })
	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	p.Unpin(0)
	assertPanics(t, "double unpin", func() { p.Unpin(0) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestPinOutOfRange(t *testing.T) {
	db := testDB(t, 50, 100, 256, 4)
	p, err := NewPool(db, Options{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Pin(storage.PageID(db.NumPages() + 5)); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
	// Failed loads must not leak frames.
	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pin(1); err != nil && db.NumPages() > 1 {
		t.Fatal(err)
	}
}

func TestAsyncReadBatch(t *testing.T) {
	db := testDB(t, 300, 1200, 128, 5)
	p, err := NewPool(db, Options{Frames: db.NumPages(), IOWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	got := map[storage.PageID]bool{}
	for pid := 0; pid < db.NumPages(); pid++ {
		wg.Add(1)
		p.AsyncReadRunContext(context.Background(), storage.PageID(pid), 1, &wg, func(_ storage.PageID, page *storage.Page, err error) {
			if err != nil {
				t.Errorf("async read: %v", err)
				return
			}
			mu.Lock()
			got[page.ID] = true
			mu.Unlock()
		})
	}
	wg.Wait()
	if len(got) != db.NumPages() {
		t.Fatalf("read %d pages, want %d", len(got), db.NumPages())
	}
	for pid := 0; pid < db.NumPages(); pid++ {
		p.Unpin(storage.PageID(pid))
	}
	if p.PinnedCount() != 0 {
		t.Fatalf("pinned frames remain: %d", p.PinnedCount())
	}
}

func TestConcurrentPinSamePage(t *testing.T) {
	db := testDB(t, 100, 400, 256, 6)
	p, err := NewPool(db, Options{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sc := attribute(p)

	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				page, err := p.Pin(0)
				if err != nil {
					t.Errorf("pin: %v", err)
					return
				}
				if page.ID != 0 {
					t.Errorf("page ID %d", page.ID)
				}
				p.Unpin(0)
			}
		}()
	}
	wg.Wait()
	// All that concurrency must cost at most a handful of physical reads
	// (one unless the page got evicted, which it can't: pool never fills).
	if st := sc.Profile(); st.PagesRead != 1 {
		t.Fatalf("physical reads = %d, want 1", st.PagesRead)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	db := testDB(t, 400, 2000, 128, 7)
	frames := db.NumPages()/2 + 1
	p, err := NewPool(db, Options{Frames: frames})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 200; j++ {
				pid := storage.PageID(rng.Intn(db.NumPages()))
				page, err := p.Pin(pid)
				if err != nil {
					if errors.Is(err, ErrNoFreeFrame) {
						continue // transient full pool under concurrency
					}
					t.Errorf("pin %d: %v", pid, err)
					return
				}
				if page.ID != pid {
					t.Errorf("page ID %d, want %d", page.ID, pid)
				}
				p.Unpin(pid)
			}
		}(int64(w))
	}
	wg.Wait()
	if p.PinnedCount() != 0 {
		t.Fatalf("pins leaked: %d", p.PinnedCount())
	}
}

func TestPageContentMatchesDB(t *testing.T) {
	db := testDB(t, 150, 600, 128, 8)
	p, err := NewPool(db, Options{Frames: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	buf := make([]byte, db.PageSize())
	for pid := 0; pid < db.NumPages(); pid++ {
		got, err := p.Pin(storage.PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.ReadPageInto(storage.PageID(pid), buf); err != nil {
			t.Fatal(err)
		}
		want, err := storage.ParsePage(buf)
		if err != nil {
			t.Fatal(err)
		}
		// A pooled page has no Records: it is read through its slot index,
		// parsed into a frame that held other pages before.
		if got.ID != want.ID || got.Slots() != len(want.Records) {
			t.Fatalf("page %d: page %d with %d slots via pool, page %d with %d records direct",
				pid, got.ID, got.Slots(), want.ID, len(want.Records))
		}
		for i, rec := range want.Records {
			adj, _, _ := got.List(i)
			continues, continuation := got.Chunk(i)
			if got.First()+graph.VertexID(i) != rec.Vertex || !slices.Equal(adj, rec.Adj) ||
				continues != rec.Continues || continuation != rec.Continuation {
				t.Fatalf("page %d slot %d: vertex %d %v (continues=%v continuation=%v) via pool, %+v direct",
					pid, i, got.First()+graph.VertexID(i), adj, continues, continuation, rec)
			}
		}
		p.Unpin(storage.PageID(pid))
	}
}

func TestAllocatePaperStrategy(t *testing.T) {
	// Triangle (2 levels): everything except the async frames goes to L1.
	a, err := Allocate(100, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a[1] != 8 || a[0] != 92 {
		t.Fatalf("2-level alloc = %v", a)
	}
	// 3 levels: last = 2*threads, first = 2/3 of rest.
	a, err = Allocate(100, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a[2] != 4 {
		t.Fatalf("last level = %d, want 4", a[2])
	}
	if a[0] != (100-4)*2/3 {
		t.Fatalf("first level = %d, want %d", a[0], (100-4)*2/3)
	}
	if a[0]+a[1]+a[2] != 100 {
		t.Fatalf("alloc %v does not sum to 100", a)
	}
	// Single level.
	a, err = Allocate(10, 1, 2, 0)
	if err != nil || a[0] != 10 {
		t.Fatalf("1-level alloc = %v err=%v", a, err)
	}
	// Errors.
	if _, err := Allocate(2, 3, 1, 0); err == nil {
		t.Fatal("too few frames accepted")
	}
	if _, err := Allocate(10, 0, 1, 0); err == nil {
		t.Fatal("zero levels accepted")
	}
}

// TestAllocateResident: told the database's page count, Allocate gives
// level 1 exactly the graph once the frames beside it cover one per deeper
// level, splits the surplus by the paper's rule, and otherwise returns the
// paper's split untouched.
func TestAllocateResident(t *testing.T) {
	for _, tc := range []struct {
		total, levels, threads, pages int
		want                          string
	}{
		{155, 3, 2, 129, "[129 22 4]"}, // surplus 26: last 4, the rest to level 2
		{155, 2, 2, 129, "[129 26]"},   // the paper's split would give level 1 151
		{131, 3, 2, 129, "[129 1 1]"},  // exactly at the threshold
		{130, 3, 2, 129, "[84 42 4]"},  // one frame short: unchanged
		{100, 3, 2, 129, "[64 32 4]"},  // pages > total: unchanged
		{100, 3, 2, 0, "[64 32 4]"},    // page count unknown: unchanged
		{500, 4, 2, 129, "[129 244 123 4]"},
		{200, 1, 2, 129, "[129]"}, // one level never takes more than the graph
		{100, 1, 2, 129, "[100]"},
	} {
		a, err := Allocate(tc.total, tc.levels, tc.threads, tc.pages)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if got := fmt.Sprint(a); got != tc.want {
			t.Errorf("Allocate(%d, %d, %d, %d) = %s, want %s", tc.total, tc.levels, tc.threads, tc.pages, got, tc.want)
		}
		if paper, _ := Allocate(tc.total, tc.levels, tc.threads, 0); a[0] != tc.pages && fmt.Sprint(paper) != fmt.Sprint(a) {
			t.Errorf("%+v: %v is neither resident nor the paper's split %v", tc, a, paper)
		}
	}
}

func TestAllocateQuickInvariants(t *testing.T) {
	f := func(total16 uint16, levels8, threads8 uint8) bool {
		total := int(total16%500) + 1
		levels := int(levels8%5) + 1
		threads := int(threads8%8) + 1
		a, err := Allocate(total, levels, threads, 0)
		if err != nil {
			return total < levels*2 || levels > total // only plausibly-small cases may fail
		}
		sum := 0
		for _, x := range a {
			if x < 1 {
				return false
			}
			sum += x
		}
		return sum == total && len(a) == levels
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateEqual(t *testing.T) {
	a, err := AllocateEqual(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != 4 || a[1] != 3 || a[2] != 3 {
		t.Fatalf("equal alloc = %v", a)
	}
	if _, err := AllocateEqual(2, 3); err == nil {
		t.Fatal("too few frames accepted")
	}
}

func TestLatencySimulationRuns(t *testing.T) {
	db := testDB(t, 50, 150, 256, 9)
	p, err := NewPool(db, Options{Frames: 4, PerPageLatency: 1, SeekLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for pid := 0; pid < db.NumPages() && pid < 4; pid++ {
		if _, err := p.Pin(storage.PageID(pid)); err != nil {
			t.Fatal(err)
		}
		p.Unpin(storage.PageID(pid))
	}
}

func ExampleAllocate() {
	alloc, _ := Allocate(60, 3, 2, 0)
	fmt.Println(alloc)
	// Output: [37 19 4]
}

func TestAsyncReadAfterClose(t *testing.T) {
	db := testDB(t, 50, 150, 256, 10)
	p, err := NewPool(db, Options{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var got error
	p.AsyncReadRunContext(context.Background(), 0, 1, &wg, func(_ storage.PageID, _ *storage.Page, err error) { got = err })
	wg.Wait()
	if !errors.Is(got, ErrPoolClosed) {
		t.Fatalf("want ErrPoolClosed, got %v", got)
	}
	// Close is idempotent.
	p.Close()
}

// TestPinWaitNanos forces two pinners onto the same slow page: the second
// must block on the in-flight load and account its wait.
func TestPinWaitNanos(t *testing.T) {
	db := testDB(t, 100, 300, 256, 7)
	p, err := NewPool(db, Options{Frames: 4, PerPageLatency: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sc := attribute(p)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Pin(0); err != nil {
			t.Error(err)
			return
		}
		p.Unpin(0)
	}()
	// Give the loader a head start so this pin lands mid-load.
	time.Sleep(2 * time.Millisecond)
	if _, err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	p.Unpin(0)
	wg.Wait()
	st := sc.Profile()
	if st.PagesRead != 1 {
		t.Fatalf("physical reads = %d, want 1 (second pin rides the in-flight load)", st.PagesRead)
	}
	if st.PinWaitNS == 0 {
		t.Error("PinWaitNS = 0, want > 0 for a pin blocked on a 20ms load")
	}
}
