package buffer

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"dualsim/internal/storage"
)

// Pinned draws: each test below was a scripted test of the pool over one
// fixture. TestPoolOracle holds all the pool answers to the file on drawn
// pools now; each name keeps its old case as one fixed draw of the oracle,
// checked like every draw and required to reach what it was pinned for.

// pinned is a fault-free draw of one client and one I/O worker over a
// database of 128-byte pages, so the clock model checks it too: script
// runs first, then ops drawn operations; set, if any, changes the draw.
func pinned(frames, ops int, script []op, set ...func(*draw)) draw {
	d := draw{seed: 1, n: 400, m: 2000, pageSize: 128, frames: frames, workers: 1, clients: 1, ops: ops, closeAt: -1, script: script}
	for _, f := range set {
		f(&d)
	}
	return d
}

// pin checks d and requires it to reach every coverage key.
func pin(t *testing.T, d draw, keys ...string) {
	t.Helper()
	cov := &coverage{n: map[string]int{}}
	check(t, d, cov)
	cov.require(t, keys...)
}

func ops(xs ...op) []op { return xs }
func run(first storage.PageID, n int, cancel byte) op {
	return op{kind: 'r', first: first, n: n, cancel: cancel}
}
func pinOp(pid storage.PageID) op   { return op{kind: 'p', first: pid} }
func unpinOp(pid storage.PageID) op { return op{kind: 'u', first: pid} }

var (
	saturate = func(d *draw) { d.saturate = true }
	// waiter cancels a page's loader while a Pin waits on the load, which a
	// 100 ms device delay (and twice that for the seek) keeps in flight.
	waiter = pinned(4, 0, ops(op{kind: 'w', first: 0, n: 1}), func(d *draw) { d.latency = 100 * time.Millisecond })
)

func TestPinUnpinBasic(t *testing.T) { pin(t, pinned(4, 0, ops(pinOp(0), pinOp(0))), "model", "hit") }
func TestPinIsRunOfOne(t *testing.T) {
	pin(t, pinned(2, 0, ops(pinOp(0), run(0, 1, 0), pinOp(1), run(2, 1, 0), pinOp(2), run(1, 1, 'b')), saturate), "model", "hit", "no free frame", "cancel:b")
}
func TestPinOutOfRange(t *testing.T) {
	pin(t, pinned(2, 10, ops(pinOp(1000), pinOp(0), pinOp(1))), "model", "out of range")
}
func TestPageContentMatchesDB(t *testing.T) { pin(t, pinned(3, 60, nil), "model", "eviction") }
func TestAsyncReadBatch(t *testing.T) {
	pin(t, pinned(64, 40, nil, func(d *draw) { d.workers = 3 }), "workers>1", "stretch>1")
}
func TestConcurrentPinSamePage(t *testing.T) {
	pin(t, pinned(4, 50, nil, func(d *draw) { d.n, d.m, d.clients = 40, 40, 4 }), "clients>1", "hit")
}
func TestConcurrentMixedWorkload(t *testing.T) {
	pin(t, pinned(24, 60, nil, func(d *draw) { d.clients, d.workers = 4, 4 }), "clients>1", "workers>1", "eviction")
}
func TestLatencySimulationRuns(t *testing.T) {
	pin(t, pinned(4, 20, nil, func(d *draw) { d.latency = time.Microsecond }), "latency", "model")
}
func TestPinWaitNanos(t *testing.T)                  { pin(t, waiter, "pin wait") }
func TestPinContextCancelSparesWaiters(t *testing.T) { pin(t, waiter, "model", "waiter spared") }
func TestPinContextPreCanceled(t *testing.T) {
	pin(t, pinned(4, 0, ops(run(0, 1, 'b'), pinOp(0))), "cancel:b")
}
func TestPinContextCancelDuringLatency(t *testing.T) {
	pin(t, pinned(4, 0, ops(run(0, 1, 'd'), pinOp(0)), func(d *draw) { d.latency = 50 * time.Millisecond }), "model", "cancel:d")
}
func TestPinContextDeadline(t *testing.T) {
	pin(t, pinned(8, 0, ops(run(0, 4, 'd')), func(d *draw) { d.latency, d.workers = 25*time.Millisecond, 2 }), "cancel:d")
}
func TestRunCanceledContext(t *testing.T) {
	pin(t, pinned(4, 0, ops(run(0, 4, 'b'))), "model", "cancel:b")
}
func TestAsyncReadContextCanceled(t *testing.T) {
	pin(t, pinned(4, 30, ops(run(0, 4, 'b'), run(4, 4, 'b')), func(d *draw) { d.workers = 2 }), "cancel:b")
}
func TestAsyncReadContextMixedCancellation(t *testing.T) {
	pin(t, pinned(32, 80, nil, func(d *draw) { d.workers, d.latency = 2, time.Millisecond }), "cancel:b", "cancel:d")
}
func TestAsyncReadRunOrderAndCounters(t *testing.T) {
	pin(t, pinned(2*DefaultMaxRun, 0, ops(run(0, 2*DefaultMaxRun, 0))), "model", "run of 2 chunks", "stretch>1")
}
func TestRunMixedHitAndLoad(t *testing.T) {
	pin(t, pinned(6, 0, ops(pinOp(2), run(0, 5, 0))), "model", "model: hits and loads in one request", "stretch>1")
}
func TestRunOutOfRangeLeaksNothing(t *testing.T) {
	pin(t, pinned(2*DefaultMaxRun, 0, ops(run(0, 2*DefaultMaxRun, 0)), func(d *draw) { d.n, d.m, d.pageSize = 40, 80, 1024 }), "model", "out of range")
}

// TestRunPerPageFallbackWithoutRunReader: a reader that serves a run page
// by page — the retry layer — still gets one request, one seek, a stretch.
func TestRunPerPageFallbackWithoutRunReader(t *testing.T) {
	pin(t, pinned(8, 0, ops(run(0, 4, 0)), func(d *draw) { d.retry = true }), "model", "retry", "stretch>1")
}
func TestAsyncReadAfterClose(t *testing.T) {
	pin(t, pinned(4, 10, nil, func(d *draw) { d.closeAt = 0 }), "closed")
}
func TestCloseAsyncReadStress(t *testing.T) {
	pin(t, pinned(16, 40, nil, func(d *draw) { d.clients, d.workers, d.latency, d.closeAt = 4, 2, 100*time.Microsecond, 10 }), "closed")
}
func TestCloseAsyncRunStress(t *testing.T) {
	pin(t, pinned(4*DefaultMaxRun, 30, ops(run(0, 2*DefaultMaxRun, 0)), func(d *draw) { d.clients, d.workers, d.latency, d.closeAt = 2, 2, 100*time.Microsecond, 1 }), "closed", "run of 2 chunks")
}
func TestEvictionRespectsPins(t *testing.T) {
	pin(t, pinned(2, 10, ops(pinOp(0), pinOp(1), pinOp(2), unpinOp(1), pinOp(2)), saturate), "model", "no free frame", "eviction")
}
func TestAcquireFrameSkipsRePinned(t *testing.T) {
	pin(t, pinned(2, 0, ops(pinOp(0), pinOp(1), unpinOp(0), pinOp(0), pinOp(2)), saturate), "model", "hit", "no free frame")
}
func TestAcquireFrameDuplicateEntries(t *testing.T) {
	pin(t, pinned(1, 0, ops(pinOp(0), unpinOp(0), pinOp(0), unpinOp(0), pinOp(1), pinOp(2), unpinOp(1), pinOp(2)), saturate), "model", "no free frame", "eviction")
}

// TestAcquireFrameSlowRescan: with every page resident and one unpinned,
// the clock finds that frame.
func TestAcquireFrameSlowRescan(t *testing.T) {
	pin(t, pinned(2, 0, ops(pinOp(0), pinOp(1), unpinOp(0), pinOp(2))), "model", "eviction")
}

// TestFailedReadCounts: runs [0,4) and [4,5) with pages 2 and 4 failing. A
// device error fails its page alone: the pages before it in the stretch
// were read, the page after it is asked for again and delivered. An image
// that does not parse was read all the same, and so was one the retry layer
// gave up on — there the rest of the stretch is read too.
func TestFailedReadCounts(t *testing.T) {
	d := pinned(8, 0, ops(run(0, 4, 0), run(4, 1, 0)), func(d *draw) { d.fault, d.faultPages = failPages, []storage.PageID{2, 4} })
	pin(t, d, "device error: "+failPages, "stretch>1", "delivered after a failed page")
	d.fault = bitFlip
	pin(t, d, "corrupt: the page asked for", "stretch>1", "delivered after a failed page")
	d.retry = true
	pin(t, d, "corrupt: the page asked for", "retry", "stretch>1", "delivered after a failed page")
}
func TestFailedLoadFreesFrame(t *testing.T) {
	pin(t, pinned(1, 0, ops(pinOp(0), pinOp(0)), func(d *draw) { d.fault, d.faultPages = transient, []storage.PageID{0} }), "device error: transient")
}

func TestUnpinPanicsOnMisuse(t *testing.T) {
	p, err := NewPool(buildDB(t, pinned(2, 0, nil)), Options{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for name, misuse := range map[string]func(){"non-resident": func() { p.Unpin(0) }, "double unpin": func() {
		if _, err := p.Pin(0); err != nil {
			t.Fatal(err)
		}
		p.Unpin(0)
		p.Unpin(0)
	}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			misuse()
		}()
	}
}

// TestResidentPinsRetainNothing: a pool that holds the whole file serves
// every pin as a hit, and pinning and unpinning every page 500 times keeps
// nothing: the heap after GC grows by less than 64 KB.
func TestResidentPinsRetainNothing(t *testing.T) {
	db := buildDB(t, pinned(0, 0, nil, func(d *draw) { d.n, d.m = 1000, 4000 }))
	p, err := NewPool(db, Options{Frames: db.NumPages() + 8})
	if err != nil || db.NumPages() < 64 {
		t.Fatalf("%v, or %d pages, want 64", err, db.NumPages())
	}
	defer p.Close()
	var before, after runtime.MemStats
	for r := range 501 {
		if r == 1 { // every page resident
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		for pid := range storage.PageID(db.NumPages()) {
			if _, err := p.Pin(pid); err != nil {
				t.Fatal(err)
			}
			p.Unpin(pid)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 64<<10 {
		t.Errorf("the heap grew by %d B over %d pins of resident pages", grew, 500*db.NumPages())
	}
}

func TestAllocatePaperStrategy(t *testing.T) {
	// Two levels: all but the async frames (2 a thread) to level 1. Three:
	// the last 2 a thread, level 1 two thirds of the rest. Too few frames
	// for the levels, or no level, is an error.
	for _, c := range []struct {
		total, levels, threads int
		want                   string
	}{{100, 2, 4, "[92 8]"}, {100, 3, 2, "[64 32 4]"}, {10, 1, 2, "[10]"}, {2, 3, 1, "error"}, {10, 0, 1, "error"}} {
		a, err := Allocate(c.total, c.levels, c.threads, 0)
		if got := fmt.Sprint(a); err != nil && got != "[]" || err == nil && got != c.want || err != nil && c.want != "error" {
			t.Errorf("Allocate(%d, %d, %d) = %v, %v; want %s", c.total, c.levels, c.threads, a, err, c.want)
		}
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
	if a, err := AllocateEqual(10, 3); fmt.Sprint(a, err) != "[4 3 3] <nil>" {
		t.Fatalf("equal alloc = %v, %v", a, err)
	}
	if _, err := AllocateEqual(2, 3); err == nil {
		t.Fatal("too few frames accepted")
	}
}

func ExampleAllocate() {
	alloc, _ := Allocate(60, 3, 2, 0)
	fmt.Println(alloc)
	// Output: [37 19 4]
}
