package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// levelWindow is the currently loaded merged vertex/page window at a level.
type levelWindow struct {
	// verts[g] is group g's current vertex window (sorted): the slice of
	// its candidate sequence falling inside the merged window.
	verts [][]graph.VertexID
	// adj maps each window vertex to its full adjacency list (sublists
	// merged). Read-only once built. Last-level windows leave lazily
	// parsed compressed records out of this map — they live in comp.
	adj map[graph.VertexID][]graph.VertexID
	// comp maps last-level window vertices whose records arrived as
	// zero-copy compressed spans (lazy parse) to those spans: the
	// compressed-domain kernels consume them in place, decoding at most
	// the candidates that survive intersection. Nil for non-last levels,
	// where adj holds everything decoded. The spans alias pinned frame
	// buffers — valid exactly as long as the window's pins, like adj itself.
	comp map[graph.VertexID]graph.CompressedAdj
	// lo..hi is the merged window's vertex ID range.
	lo, hi graph.VertexID
	// pages are the pages the window needs (path-pin accounting covers all
	// of them); pinned records the subset whose loads succeeded and that
	// therefore hold a buffer pin to release.
	pages  []storage.PageID
	pinned map[storage.PageID]bool
	// loaded pages by ID for the last-level split-vertex pass.
	loadedPages map[storage.PageID]*storage.Page
	// sealed is set (with release semantics) once every page load completed
	// and split records were merged: from then on adj is read-only. Until
	// then adj is concurrently written by load callbacks, and last-level
	// page tasks already running must restrict themselves to their own
	// page's records (matcher.pageAdj) instead of reading adj.
	sealed atomic.Bool

	// internal/external accumulate the embeddings found by tasks attached
	// to this window. Keeping counts window-local until the window
	// completes makes whole-window retry idempotent: a failed attempt's
	// partial counts are simply never merged into the run totals
	// (settleWindowCounts), so re-dispatching the window cannot double
	// count.
	internal atomic.Uint64
	external atomic.Uint64
}

// processLevel drives the merged-window iteration at level l >= 1
// (Algorithm 2). Windows at level l nest inside the current windows of all
// earlier levels. Level 1 is not iterated here: its windows arrive pinned
// from the run's Sweep (Algorithm 1 lines 7-16 are Sweep.Load,
// Rider.ProcessWindow and Sweep.Release).
func (r *run) processLevel(l int) error {
	iter := windowIterator{r: r, level: l, merged: r.mergedCandidates(l)}
	// Settle the level's speculative reads on every exit path (error,
	// cancellation, level exhausted): leftover pins must be released before
	// the caller unloads outer windows or the run returns.
	defer r.settlePrefetch(l)
	defer r.openLevel(l)()
	lastLevel := l == r.k-1
	for iter.next() {
		// Cancellation gate: every window iteration at every level checks
		// the run's context, so a cancel stops the traversal within one
		// window regardless of depth.
		if err := r.gate(); err != nil {
			return err
		}
		verts := iter.windowVerts()
		ord := r.windowsPer[l] + 1 // 1-based window ordinal at this level
		r.openWindow(l, ord, verts)
		lw, err := r.loadWindowWithRetry(l, verts, lastLevel, ord)
		if err != nil {
			return err
		}
		r.winData[l] = lw
		// Speculate on the level's next window while this one is enumerated:
		// its page set is computable from the iterator without loading.
		r.startPrefetch(l, &iter, lw)
		r.countWindow(l)

		if lastLevel {
			// Matching already dispatched page-by-page as reads completed
			// (loadWindow); handle split vertices.
			r.dispatchSplitVertices(lw)
			drainStart := time.Now()
			r.workers.drain()
			if r.tracer != nil {
				r.emit(obs.Event{Event: "external_enum", Level: l + 1, Window: ord,
					Verts: len(verts), DurUS: time.Since(drainStart).Microseconds(),
					Span: r.winSpan[l]})
			}
			r.settleWindowCounts(lw)
		} else {
			r.computeChildCandidates(l)
			if err := r.processLevel(l + 1); err != nil {
				r.unloadWindow(lw)
				return err
			}
			r.clearChildCandidates(l)
		}
		r.unloadWindow(lw)
		r.closeWindow(l, ord)
		if err := r.firstErr(); err != nil {
			return err
		}
	}
	r.winData[l] = nil
	return nil
}

// gate is the per-window cancellation and failure check: a dead context
// fails the run, and a failed run stops at the next window boundary.
func (r *run) gate() error {
	if err := r.ctx.Err(); err != nil {
		r.fail(err)
		return err
	}
	return r.firstErr()
}

// openLevel opens level l's span (attributed runs only), nested under the
// enclosing window or, at level 1, the query span; the returned function
// closes it.
func (r *run) openLevel(l int) func() {
	span := r.span()
	if span == 0 {
		return func() {}
	}
	parent := r.querySpan
	if l > 0 {
		parent = r.winSpan[l-1]
	}
	r.levelSpan[l] = span
	start := time.Now()
	r.emit(obs.Event{Event: "level_start", Level: l + 1, Span: span, Parent: parent})
	return func() {
		r.emit(obs.Event{Event: "level_end", Level: l + 1, Span: span, Parent: parent,
			DurUS: time.Since(start).Microseconds()})
	}
}

// openWindow mints the span of level l's window ord and traces window_open;
// closeWindow traces the matching window_close.
func (r *run) openWindow(l, ord int, verts []graph.VertexID) {
	r.winSpan[l] = r.span()
	r.winStart[l] = time.Now()
	if r.tracer == nil {
		return
	}
	ev := obs.Event{Event: "window_open", Level: l + 1, Window: ord, Verts: len(verts),
		Span: r.winSpan[l], Parent: r.levelSpan[l]}
	if len(verts) > 0 {
		ev.Lo, ev.Hi = uint64(verts[0]), uint64(verts[len(verts)-1])
	}
	r.emit(ev)
}

func (r *run) closeWindow(l, ord int) {
	if r.tracer != nil {
		r.emit(obs.Event{Event: "window_close", Level: l + 1, Window: ord,
			DurUS: time.Since(r.winStart[l]).Microseconds(),
			Span:  r.winSpan[l], Parent: r.levelSpan[l]})
	}
}

// countWindow books one window iteration at level l.
func (r *run) countWindow(l int) {
	r.windowsPer[l]++
	r.em.windows.Inc()
	if r.scope != nil {
		r.scope.Windows.Add(1)
	}
}

// settleWindowCounts merges a completed window's task-local counts into the
// run totals and the engine's cumulative metrics. Counts of a window that
// failed (and is being retried or abandoned) are never settled — that is
// the idempotence contract of loadWindowWithRetry.
func (r *run) settleWindowCounts(lw *levelWindow) {
	if n := lw.internal.Swap(0); n > 0 {
		r.internalCount.Add(n)
		r.em.embInternal.Add(n)
		if r.scope != nil {
			r.scope.EmbInternal.Add(n)
		}
	}
	if n := lw.external.Swap(0); n > 0 {
		r.externalCount.Add(n)
		r.em.embExternal.Add(n)
		if r.scope != nil {
			r.scope.EmbExternal.Add(n)
		}
	}
}

// emitCheckpoint delivers the current frontier to the run's checkpoint
// callback (orchestrator goroutine only; cursor is the level-1 candidate
// index the next window starts at).
func (r *run) emitCheckpoint(cursor int) {
	if r.onCheckpoint == nil {
		return
	}
	r.em.checkpoints.Inc()
	if r.scope != nil {
		r.scope.Checkpoints.Add(1)
	}
	r.onCheckpoint(Checkpoint{
		K:        r.k,
		Cursor:   cursor,
		Windows:  r.windowsPer[0],
		Internal: r.internalCount.Load(),
		External: r.externalCount.Load(),
	})
}

// mergedCandidates returns the merged candidate vertex sequence for level l:
// the sorted union of every group's candidate sequence.
func (r *run) mergedCandidates(l int) []graph.VertexID {
	var lists [][]graph.VertexID
	for g := range r.cand {
		c := r.cand[g][l]
		if c.full {
			return r.e.all
		}
		if len(c.list) > 0 {
			lists = append(lists, c.list)
		}
	}
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	return unionSorted(lists)
}

// unionSorted merges k sorted candidate lists into one sorted deduplicated
// list by balanced pairwise rounds (a merge tree): each element moves
// through O(log k) two-way merges instead of being compared against every
// list head per output element as in the seed's linear best-of-k scan —
// O(n log k) total versus O(n·k). The inputs are not modified, and the
// result never aliases any input's backing array — overlay-merged lists
// feed this merge and are retained read-only by the window, so an aliased
// result could be mutated behind the window's back by a caller appending
// to it. Empty inputs (a fully-tombstoned overlay list among them) are
// skipped up front; all-empty input yields nil.
func unionSorted(lists [][]graph.VertexID) []graph.VertexID {
	// Drop empty lists first: the merge tree below would carry an empty
	// operand through every round, and a single surviving list must still
	// be copied (not returned) to keep the no-aliasing contract.
	nonEmpty := lists[:0:0]
	for _, l := range lists {
		if len(l) > 0 {
			nonEmpty = append(nonEmpty, l)
		}
	}
	switch len(nonEmpty) {
	case 0:
		return nil
	case 1:
		return append([]graph.VertexID(nil), nonEmpty[0]...)
	}
	work := make([][]graph.VertexID, len(nonEmpty))
	copy(work, nonEmpty)
	for len(work) > 1 {
		next := work[: 0 : (len(work)+1)/2]
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, mergeUnion2(work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			// The odd tail rides to the next round unmerged. It can never
			// become the result directly: rounds shrink n to ceil(n/2), so
			// from n >= 2 the final round always has exactly two operands
			// and ends in a fresh mergeUnion2 allocation.
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// mergeUnion2 merges two sorted lists, dropping duplicates (within and
// across inputs). The result is freshly allocated; a and b are read-only.
func mergeUnion2(a, b []graph.VertexID) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v graph.VertexID
		if j >= len(b) || (i < len(a) && a[i] <= b[j]) {
			v = a[i]
			i++
		} else {
			v = b[j]
			j++
		}
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// windowIterator chops a merged candidate sequence into consecutive windows
// whose un-pinned page footprint fits the level's frame budget. Pages
// already pinned by outer windows do not consume budget, so windows are
// variably sized, exactly as in Section 5.1.
type windowIterator struct {
	r      *run
	level  int
	merged []graph.VertexID
	start  int
	curLo  int
	curHi  int // window is merged[curLo:curHi]
}

func (it *windowIterator) next() bool {
	if it.start >= len(it.merged) {
		return false
	}
	r := it.r
	budget := r.winBudget[it.level]
	newPages := make(map[storage.PageID]bool)
	i := it.start
	for i < len(it.merged) {
		v := it.merged[i]
		first, last := r.e.db.SpanOf(v)
		// Count pages this vertex adds beyond the path-pinned set and the
		// window's own set.
		added := 0
		for p := first; p <= last; p++ {
			if r.pathPinned[p] == 0 && !newPages[p] {
				added++
			}
		}
		if len(newPages)+added > budget {
			if i == it.start {
				r.fail(fmt.Errorf("core: vertex %d spans %d pages, exceeding the %d-frame budget of level %d; increase the buffer size",
					v, last-first+1, budget, it.level+1))
				return false
			}
			break
		}
		for p := first; p <= last; p++ {
			if r.pathPinned[p] == 0 {
				newPages[p] = true
			}
		}
		i++
	}
	it.curLo, it.curHi = it.start, i
	it.start = i
	return true
}

func (it *windowIterator) windowVerts() []graph.VertexID {
	return it.merged[it.curLo:it.curHi]
}

// peekNextPages predicts the page set of the level's next window without
// advancing the iterator: it replays next()'s budget walk from the current
// position, treating the current window's own path pins (cur) as already
// released — they will be by the time the next window loads. Only pages
// that will actually need a read are returned (pages held by outer-level
// windows stay resident), ascending, truncated to max. Returns nil when
// the level is exhausted.
func (it *windowIterator) peekNextPages(cur *levelWindow, max int) []storage.PageID {
	if it.start >= len(it.merged) || max <= 0 {
		return nil
	}
	r := it.r
	budget := r.winBudget[it.level]
	curSet := make(map[storage.PageID]bool, len(cur.pages))
	for _, p := range cur.pages {
		curSet[p] = true
	}
	// effective path-pin count once the current window unloads
	free := func(p storage.PageID) bool {
		n := r.pathPinned[p]
		if curSet[p] {
			n--
		}
		return n == 0
	}
	newPages := make(map[storage.PageID]bool)
	var pages []storage.PageID
	for i := it.start; i < len(it.merged); i++ {
		first, last := r.e.db.SpanOf(it.merged[i])
		added := 0
		for p := first; p <= last; p++ {
			if free(p) && !newPages[p] {
				added++
			}
		}
		if len(newPages)+added > budget {
			break
		}
		for p := first; p <= last; p++ {
			if free(p) && !newPages[p] {
				newPages[p] = true
				pages = append(pages, p)
			}
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	if len(pages) > max {
		pages = pages[:max]
	}
	return pages
}

// startPrefetch begins the level's speculative round for the window after
// lw, if the level has a prefetcher and the iterator has more vertices.
// The round covers the leading pages of the next window's predicted page
// set, clipped to the carved budget — the prefetcher pins what it loads so
// the speculation survives the last level's eviction churn until the
// window transition collects it.
func (r *run) startPrefetch(l int, it *windowIterator, lw *levelWindow) {
	pf := r.prefetch[l]
	if pf == nil {
		return
	}
	pids := it.peekNextPages(lw, pf.Budget())
	if len(pids) == 0 {
		return
	}
	n := pf.Start(r.ctx, pids)
	r.em.prefetchIssued.Add(uint64(n))
	if r.scope != nil && n > 0 {
		r.scope.PrefetchIssued.Add(uint64(n))
	}
}

// collectPrefetch settles the level's speculative round, classifying its
// pages with useful (nil: all wasted) and booking both tallies.
func (r *run) collectPrefetch(l int, useful func(storage.PageID) bool) {
	pf := r.prefetch[l]
	if pf == nil {
		return
	}
	nUseful, nWasted := pf.Collect(useful)
	if nUseful > 0 {
		r.em.prefetchUseful.Add(uint64(nUseful))
		if r.scope != nil {
			r.scope.PrefetchUseful.Add(uint64(nUseful))
		}
	}
	if nWasted > 0 {
		r.em.prefetchWasted.Add(uint64(nWasted))
		if r.scope != nil {
			r.scope.PrefetchWasted.Add(uint64(nWasted))
		}
	}
}

// settlePrefetch cancels and releases whatever the level's prefetcher still
// holds, counting it all as wasted (the window-skip / error-exit path).
func (r *run) settlePrefetch(l int) { r.collectPrefetch(l, nil) }

// loadWindowWithRetry is the engine's one window loader — deep levels call
// it from processLevel, level 1 from Sweep.Load on the sweep's run — with
// whole-window recovery: a transient fault that survived the read-level
// retry budget drains the window's already-dispatched tasks (deep last
// levels only), discards its pins and partial counts, clears the run error
// it caused, backs off (exponentially, bounded, observing the run context),
// and reloads the same window — up to Options.WindowRetries times. Retries are cheap on the I/O side: pages whose loads succeeded
// before the fault are still resident in the buffer pool, so a retry
// re-reads only the pages that actually failed. Permanent errors
// (corruption, cancellation, budget misfits) are returned immediately.
func (r *run) loadWindowWithRetry(l int, verts []graph.VertexID, lastLevel bool, ord int) (*levelWindow, error) {
	for attempt := 0; ; attempt++ {
		lw, err := r.loadWindow(l, verts, lastLevel, ord)
		if err == nil {
			return lw, nil
		}
		// The failed attempt's tasks may still be running against lw; they
		// must finish before the pins are released and the counts dropped.
		if lastLevel {
			r.workers.drain()
		}
		r.unloadWindow(lw)
		lw.internal.Store(0)
		lw.external.Store(0)
		if attempt >= r.e.opts.WindowRetries || !storage.IsTransient(err) || r.ctx.Err() != nil {
			return nil, err
		}
		// Absorb exactly the failure this attempt caused; a different error
		// that landed concurrently (cancellation, a corrupt page on another
		// path) survives and fails the run on the next gate.
		box := r.err.Load()
		if box == nil || box.err != err || !r.absorbErr(box) {
			return nil, err
		}
		r.windowRetries++
		r.em.windowRetries.Inc()
		if r.scope != nil {
			r.scope.WindowRetries.Add(1)
		}
		if r.tracer != nil {
			r.emit(obs.Event{Event: "window_retry", Level: l + 1, Window: ord, Attempt: attempt + 1,
				Span: r.winSpan[l]})
		}
		if !r.sleepWindowBackoff(attempt) {
			r.fail(r.ctx.Err())
			return nil, r.ctx.Err()
		}
	}
}

// The window-level retry backoff: the delay before the first retry and the
// cap it doubles up to.
const (
	windowRetryBackoff    = 10 * time.Millisecond
	windowRetryMaxBackoff = 250 * time.Millisecond
)

// sleepWindowBackoff waits the attempt's window-level backoff (0-based,
// doubling from windowRetryBackoff up to windowRetryMaxBackoff), honouring
// the run context. Reports false when the context ended first.
func (r *run) sleepWindowBackoff(attempt int) bool {
	d := windowRetryBackoff
	for i := 0; i < attempt && d < windowRetryMaxBackoff; i++ {
		d *= 2
	}
	if d > windowRetryMaxBackoff {
		d = windowRetryMaxBackoff
	}
	if sleep := r.e.opts.WindowRetrySleep; sleep != nil {
		sleep(d)
		return r.ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.ctx.Done():
		return false
	}
}

// loadWindow is one load attempt: it pins every page needed by the window's
// vertices (the only place window reads are issued), builds the merged
// adjacency map with the run's overlay folded in, and splits the window per
// group. What callers differ in arrives as state of the run it is called
// on: the error sink (the run's error box), the pinned overlay snapshot,
// and the level's prefetcher. When lastLevel is set (deep levels only),
// compressed records keep their zero-copy spans and complete records are
// dispatched to the matching workers as each page load completes,
// overlapping CPU with the remaining I/O. On error the window is returned
// alongside it still holding its pins — the caller (loadWindowWithRetry)
// drains in-flight tasks before unloading it.
func (r *run) loadWindow(l int, verts []graph.VertexID, lastLevel bool, ord int) (*levelWindow, error) {
	lw := &levelWindow{
		verts:       make([][]graph.VertexID, len(r.p.Groups)),
		adj:         make(map[graph.VertexID][]graph.VertexID),
		pinned:      make(map[storage.PageID]bool),
		loadedPages: make(map[storage.PageID]*storage.Page),
	}
	if lastLevel {
		lw.comp = make(map[graph.VertexID]graph.CompressedAdj)
	}
	if len(verts) > 0 {
		lw.lo, lw.hi = verts[0], verts[len(verts)-1]
	}
	// Page list: union of vertex spans, ascending (sequential issue order).
	var pages []storage.PageID
	seen := make(map[storage.PageID]bool)
	for _, v := range verts {
		first, last := r.e.db.SpanOf(v)
		for p := first; p <= last; p++ {
			if !seen[p] {
				seen[p] = true
				pages = append(pages, p)
			}
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	lw.pages = pages

	// Settle the level's speculative round before issuing this window's
	// reads: pages the prediction got right are still resident and turn the
	// reads below into buffer hits; the speculative pins are released first
	// so the pool's worst case stays within the level's allocation.
	r.collectPrefetch(l, func(pid storage.PageID) bool { return seen[pid] })

	// Window membership per group: the intersection of the group's candidate
	// sequence with the merged window range, precomputed so last-level
	// callbacks can run before all pages land.
	for g := range r.p.Groups {
		lw.verts[g] = sliceRange(r.cand[g][l].slice(r.e.all), lw.lo, lw.hi)
	}

	// With a live-ingest overlay, pre-seal dispatch is off: a record's
	// on-disk adjacency may be stale, and the merged view exists only
	// after applyOverlay runs under the seal. Page tasks are dispatched
	// post-seal instead — the overlap with I/O is lost for mutated runs,
	// the price of reading one consistent graph version.
	eager := lastLevel && r.overlay == nil
	var mu sync.Mutex
	var wg sync.WaitGroup
	onPage := func(pid storage.PageID, page *storage.Page, err error) {
		if err != nil {
			r.fail(err)
			return
		}
		mu.Lock()
		lw.pinned[pid] = true
		lw.loadedPages[pid] = page
		crecs, cbytes := indexPageRecords(page, lw.adj, lw.comp, lastLevel)
		mu.Unlock()
		if crecs > 0 {
			r.em.compressedRecs.Add(crecs)
			r.em.compressedBytes.Add(cbytes)
		}
		if eager {
			// Overlap: match complete records while later pages load.
			r.workers.submit(func() { r.extMapPage(page, lw) })
		}
	}
	// Issue maximal contiguous runs: the pool serves each with one simulated
	// seek (one device request under a RunReader), delivering pages in order.
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j] == pages[j-1]+1 {
			j++
		}
		for _, pid := range pages[i:j] {
			r.pathPinned[pid]++
		}
		wg.Add(j - i)
		r.e.pool.AsyncReadRunContext(r.ctx, pages[i], j-i, &wg, onPage)
		i = j
	}
	waitStart := time.Now()
	wg.Wait()
	wait := time.Since(waitStart)
	r.ioWait += wait
	r.em.ioWaitNanos.Add(uint64(wait.Nanoseconds()))
	if r.scope != nil {
		r.scope.IOWaitNanos.Add(uint64(wait.Nanoseconds()))
	}
	r.em.windowLoadUS.Observe(wait.Microseconds())
	r.em.windowPages.Observe(int64(len(pages)))
	if r.tracer != nil {
		r.emit(obs.Event{Event: "window_pinned", Level: l + 1, Window: ord,
			Pages: len(pages), DurUS: wait.Microseconds(), Span: r.winSpan[l]})
	}
	if err := r.firstErr(); err != nil {
		return lw, err
	}
	// Merge split adjacency lists (multi-page vertices) for window vertices.
	r.mergeSplitRecords(lw)
	// Fold the live-ingest overlay in: every mutated vertex indexed by this
	// window gets its merged (base ∪ adds) \ tombstones adjacency, at every
	// level — child candidates, internal enumeration, and descent-time
	// lookups all read lw.adj. Runs after mergeSplitRecords (whose
	// degree check is against the base directory) and before the seal.
	r.applyOverlay(lw)
	// Seal: adj is complete and read-only from here on. Already-dispatched
	// page tasks that observed the window unsealed keep using their own
	// page's records; everything dispatched after this point reads adj.
	lw.sealed.Store(true)
	if lastLevel && r.overlay != nil {
		// The overlay suppressed pre-seal dispatch; match every page now
		// that adj is merged and sealed. Mutated vertices are rooted
		// separately (extMapPage skips them — their record adjacency is
		// stale), except split vertices, which dispatchSplitVertices roots
		// from the merged lw.adj like any other split record.
		for _, pid := range lw.pages {
			page := lw.loadedPages[pid]
			if page == nil {
				continue
			}
			r.workers.submit(func() { r.extMapPage(page, lw) })
		}
		r.dispatchOverlayVertices(lw)
	}
	return lw, nil
}

// applyOverlay rewrites the adjacency index of every overlay-mutated vertex
// the window loaded: compressed spans of mutated vertices decode first
// (a compressed operand cannot represent the merged list), then the
// overlay applies. Vertices whose records live on the window's pages but
// outside the vertex window are merged too — descent-time lookups resolve
// any indexed vertex through lw.adj, and all of them must agree on the
// graph version. No-op without an overlay.
func (r *run) applyOverlay(lw *levelWindow) {
	if r.overlay == nil {
		return
	}
	merged := uint64(0)
	r.overlay.Vertices(func(v graph.VertexID, _ *delta.VertexDelta) {
		base, ok := lw.adj[v]
		if !ok {
			if comp, cok := lw.comp[v]; cok {
				base = comp.AppendTo(nil)
				delete(lw.comp, v)
			} else {
				return // not indexed by this window
			}
		}
		lw.adj[v] = r.overlay.Apply(v, base)
		merged++
	})
	if merged > 0 {
		r.em.overlayVertices.Add(merged)
	}
}

// dispatchOverlayVertices roots last-level matching for overlay-mutated
// vertices with complete (single-page) records — extMapPage skipped them
// because their on-disk record is stale. Their merged adjacency comes from
// lw.adj; split mutated vertices are excluded (dispatchSplitVertices roots
// those from the same merged map).
func (r *run) dispatchOverlayVertices(lw *levelWindow) {
	rooted := make(map[graph.VertexID]bool)
	for _, pid := range lw.pages {
		page := lw.loadedPages[pid]
		if page == nil {
			continue
		}
		for i := range page.Records {
			rec := &page.Records[i]
			if rec.Continues || rec.Continuation || rooted[rec.Vertex] {
				continue
			}
			if r.overlay.Of(rec.Vertex) == nil {
				continue
			}
			v := rec.Vertex
			adj, ok := lw.adj[v]
			if !ok {
				continue
			}
			rooted[v] = true
			r.workers.submit(func() { r.extMapVertex(v, adj, lw) })
		}
	}
}

// indexPageRecords adds a loaded page's complete records to a window's
// adjacency index. Lazily parsed compressed records either keep their
// zero-copy span in comp (last-level windows, where the compressed-domain
// kernels consume them in place) or decode into a page-shared slab (every
// other level reads adj structurally: child candidates, internal
// enumeration, clipping). Returns the page's compressed record and payload
// byte counts for the window-load metrics; callers hold the window lock.
func indexPageRecords(page *storage.Page, adj map[graph.VertexID][]graph.VertexID, comp map[graph.VertexID]graph.CompressedAdj, keepCompressed bool) (crecs, cbytes uint64) {
	var slab []graph.VertexID
	if !keepCompressed {
		total := 0
		for i := range page.Records {
			rec := &page.Records[i]
			if rec.Adj == nil && rec.CompBytes > 0 && !rec.Continues && !rec.Continuation {
				total += rec.Comp.Count
			}
		}
		if total > 0 {
			slab = make([]graph.VertexID, 0, total)
		}
	}
	for i := range page.Records {
		rec := &page.Records[i]
		if rec.CompBytes > 0 {
			crecs++
			cbytes += uint64(rec.CompBytes)
		}
		if rec.Continues || rec.Continuation {
			continue // merged after the window loads (mergeSplitRecords)
		}
		if rec.Adj == nil && rec.CompBytes > 0 {
			if keepCompressed {
				comp[rec.Vertex] = rec.Comp
			} else {
				start := len(slab)
				slab = rec.Comp.AppendTo(slab)
				adj[rec.Vertex] = slab[start:len(slab):len(slab)]
			}
			continue
		}
		adj[rec.Vertex] = rec.Adj
	}
	return crecs, cbytes
}

// mergeSplitRecords assembles adjacency lists that span multiple pages into
// lw.adj. Window chopping keeps a vertex's span inside one window, so all
// chunks are present. Split chunks always decode — a multi-page list is
// reassembled by concatenation, which a compressed span cannot represent.
func (r *run) mergeSplitRecords(lw *levelWindow) {
	var split map[graph.VertexID][]graph.VertexID
	for _, pid := range lw.pages {
		page := lw.loadedPages[pid]
		if page == nil {
			continue
		}
		for i := range page.Records {
			rec := &page.Records[i]
			if rec.Continues || rec.Continuation {
				if split == nil {
					split = make(map[graph.VertexID][]graph.VertexID)
				}
				split[rec.Vertex] = appendRecord(split[rec.Vertex], rec)
			}
		}
	}
	for v, adj := range split {
		if len(adj) == r.e.db.Degree(v) {
			lw.adj[v] = adj
		}
		// Incomplete merges belong to vertices outside the window (their
		// remaining chunks live on unpinned pages); they are never matched.
	}
}

// appendRecord appends a record's adjacency entries to dst, decoding a
// lazily parsed compressed chunk in the process.
func appendRecord(dst []graph.VertexID, rec *storage.Record) []graph.VertexID {
	if rec.Adj == nil && rec.CompBytes > 0 {
		return rec.Comp.AppendTo(dst)
	}
	return append(dst, rec.Adj...)
}

// dispatchSplitVertices schedules last-level matching for vertices whose
// records span pages (excluded from the per-page fast path).
func (r *run) dispatchSplitVertices(lw *levelWindow) {
	for _, pid := range lw.pages {
		page := lw.loadedPages[pid]
		if page == nil {
			continue
		}
		for _, rec := range page.Records {
			if rec.Continues && !rec.Continuation {
				v := rec.Vertex
				adj, ok := lw.adj[v]
				if !ok {
					continue // outside the window
				}
				r.workers.submit(func() { r.extMapVertex(v, adj, lw) })
			}
		}
	}
}

// unloadWindow releases the window: path-pin accounting covers every page
// the window asked for, but only successfully loaded pages hold a buffer
// pin (loads can fail mid-window).
func (r *run) unloadWindow(lw *levelWindow) {
	for _, pid := range lw.pages {
		r.pathPinned[pid]--
		if r.pathPinned[pid] == 0 {
			delete(r.pathPinned, pid)
		}
		if lw.pinned[pid] {
			r.e.pool.Unpin(pid)
		}
	}
	lw.pages = nil
	lw.pinned = nil
}

// computeChildCandidates fills cand[g][child] for every child of each
// group's node at level l from the group's current vertex window, applying
// the total-order pruning of Lemma 1: if the child's position follows
// (precedes) the parent's, only larger (smaller) neighbors qualify.
func (r *run) computeChildCandidates(l int) {
	lw := r.winData[l]
	for g, vg := range r.p.Groups {
		for _, childLevel := range vg.Forest.Children[l] {
			posParent := r.p.MatchingOrder[l]
			posChild := r.p.MatchingOrder[childLevel]
			var out []graph.VertexID
			for _, v := range lw.verts[g] {
				adj := lw.adj[v]
				if posChild > posParent {
					i := sort.Search(len(adj), func(i int) bool { return adj[i] > v })
					out = append(out, adj[i:]...)
				} else {
					i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
					out = append(out, adj[:i]...)
				}
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			out = dedupSorted(out)
			r.em.candSize.Observe(int64(len(out)))
			r.cand[g][childLevel] = candSeq{list: out}
		}
	}
}

// clearChildCandidates resets the candidate sequences computed by
// computeChildCandidates(l), freeing their memory between windows.
func (r *run) clearChildCandidates(l int) {
	for g, vg := range r.p.Groups {
		for _, childLevel := range vg.Forest.Children[l] {
			r.cand[g][childLevel] = candSeq{}
		}
	}
}

// dispatchInternal schedules internal subgraph enumeration over the level-0
// window, chunked so workers share it. Chunks are coarse — one per thread per
// group — because running tasks re-split whenever the queue drains (see
// internalEnumerate).
func (r *run) dispatchInternal(lw *levelWindow) {
	if r.tracer != nil {
		verts := 0
		for g := range r.p.Groups {
			verts += len(lw.verts[g])
		}
		r.emit(obs.Event{Event: "internal_enum", Level: 1, Window: r.windowsPer[0], Verts: verts,
			Span: r.winSpan[0]})
	}
	for g := range r.p.Groups {
		verts := lw.verts[g]
		if len(verts) == 0 {
			continue
		}
		chunks := r.e.opts.Threads
		if chunks > len(verts) {
			chunks = len(verts)
		}
		size := (len(verts) + chunks - 1) / chunks
		for lo := 0; lo < len(verts); lo += size {
			hi := lo + size
			if hi > len(verts) {
				hi = len(verts)
			}
			g, lo, hi := g, lo, hi
			r.workers.submit(func() { r.internalEnumerate(g, verts[lo:hi], lw) })
		}
	}
}

// sliceRange returns the subslice of sorted list with values in [lo, hi].
func sliceRange(list []graph.VertexID, lo, hi graph.VertexID) []graph.VertexID {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= lo })
	j := sort.Search(len(list), func(j int) bool { return list[j] > hi })
	return list[i:j]
}

func dedupSorted(list []graph.VertexID) []graph.VertexID {
	if len(list) < 2 {
		return list
	}
	out := list[:1]
	for _, v := range list[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
