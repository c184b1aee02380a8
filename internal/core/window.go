package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// levelWindow is the currently loaded merged vertex/page window at a level:
// a flat index over its pinned pages. The builder writes one record per
// vertex per page in vertex-ID order (isolated vertices included), so a
// page's records are a dense run of IDs and a vertex resolves without
// hashing and without a per-vertex directory — the window's own table (tab:
// the ordinal of the last window page beginning at or below v) → slot
// (v − page.First()) → the page's slot index (storage.Page.List), which
// gives the list and its forward split in one read of the index — with side
// for the few lists no single record holds. Every resolved list carries its
// split (the index of its first neighbour above its own vertex), so a clip
// at either side of that vertex starts there instead of searching. A
// last-level pass (stream.go) uses the same structure for the pages it
// streams through, of which only a budget's worth is loaded at any moment
// and each is read by its own task alone.
type levelWindow struct {
	// verts[g] is group g's current vertex window (sorted) when its node is
	// no forest root: the slice of its candidate sequence falling inside the
	// merged window. A root's is the window's ID range lo..hi itself, listed
	// nowhere. A pass has none: its candidates are the level's whole
	// sequences (matcher.inGroup), a root's every vertex.
	verts [][]graph.VertexID
	// lo..hi is the merged window's vertex ID range (unset in a pass, which
	// nothing descends from).
	lo, hi graph.VertexID
	// pages are the pages the window needs, ascending (path-pin accounting
	// covers all of a loaded window's); loaded is parallel to it.
	pages  []storage.PageID
	loaded []windowPage
	// tab resolves a vertex to its ordinal; built once the pages have landed,
	// in the run's memory for the level (empty in a pass, which resolves
	// through each task's own page).
	tab vertexTable
	// side lists, ascending by vertex, the adjacency lists no single record
	// holds: multi-page vertices, their chunks concatenated and the run's
	// overlay applied (buildSide). Most windows have none, and a last-level
	// pass never has one: it roots each such vertex once, as its last chunk
	// lands (stream.go).
	side []sideEntry

	// internal/external accumulate the embeddings found by tasks attached
	// to this window, merged into the run totals and the engine's embedding
	// metrics only once the window completes (settleWindowCounts), so a
	// failed or cancelled window adds nothing to either.
	internal atomic.Uint64
	external atomic.Uint64
}

// windowPage is one ordinal of a window's index. Only the page's own load
// callback writes it; nothing reads it before that callback has returned — a
// window is handed on once every page has landed, a last-level pass hands
// each page to its own task (matcher.own).
type windowPage struct {
	// page is the pinned page; nil when its load failed (nothing to unpin)
	// or, in a pass, before it has landed and after it was released. It is
	// its buffer frame's memory, which the frame's next load overwrites: it
	// and every list taken from it are read only while the pin is held.
	page *storage.Page
	// lists holds, by slot, the overlay-merged lists that stand in for the
	// page's complete records the run's snapshot touches (one slab per page);
	// nil for a page it does not touch. It lives here, per run and window,
	// because the pooled *storage.Page is shared with runs at other
	// snapshots.
	lists []slotList
	// chunked reports a Continues/Continuation record on the page: a chunk
	// of a multi-page vertex, assembled into the side table after the loads
	// (buildSide walks only these pages).
	chunked bool
}

// slotList is one slot of windowPage.lists: the merged list and its forward
// split. set tells a record merged to the empty list (every neighbour
// tombstoned), which must not fall through to its on-disk record, from a
// slot nothing stands in for; the length of adj cannot.
type slotList struct {
	adj   []graph.VertexID
	split int
	set   bool
}

// sideEntry is one vertex's adjacency list in a window's side table, and its
// forward split.
type sideEntry struct {
	v     graph.VertexID
	adj   []graph.VertexID
	split int
}

// forwardSplit returns the index of the first neighbour of v above v in adj,
// which ascends: lists are duplicate-free and never hold their own vertex, so
// v's insertion point splits smaller from larger neighbours.
func forwardSplit(adj []graph.VertexID, v graph.VertexID) int {
	i, _ := slices.BinarySearch(adj, v)
	return i
}

// vertexTable maps a vertex to the ordinal of the window page that holds its
// record: the last page beginning at or below it. The IDs from the window's
// first vertex to its last are cut into at most 16 × pages buckets of
// 2^shift, each holding the last ordinal beginning at or below its start, so
// a lookup reads one bucket and steps past the few pages that begin inside it
// (most buckets have none). It is sized by the window's pages, never by its
// ID range, and built in the run's memory for its level (run.tables), which
// the level's next window reuses.
type vertexTable struct {
	firsts []graph.VertexID // by ordinal, its page's first vertex; then a sentinel above every vertex
	bucket []uint32         // bucket[b]: the last ordinal beginning at or below base + b<<shift
	base   graph.VertexID   // the first page's first vertex: bucket 0's start
	shift  uint
}

// build fills the table from a window's loaded pages.
func (t *vertexTable) build(loaded []windowPage) {
	t.firsts, t.bucket = t.firsts[:0], t.bucket[:0]
	for i := range loaded {
		t.firsts = append(t.firsts, loaded[i].page.First())
	}
	n := len(t.firsts)
	if n == 0 {
		return
	}
	t.firsts = append(t.firsts, math.MaxUint32)
	last := loaded[n-1].page
	t.base = t.firsts[0]
	span := uint64(last.First()) + uint64(max(last.Slots(), 1)) - 1 - uint64(t.base)
	t.shift = uint(bits.Len64(span / uint64(16*n)))
	for b, o := uint64(0), uint32(0); b <= span>>t.shift; b++ {
		for uint64(t.firsts[o+1]) <= uint64(t.base)+b<<t.shift {
			o++
		}
		t.bucket = append(t.bucket, o)
	}
}

// ordinal returns the ordinal of the last page beginning at or below v, or
// -1 when v lies outside the window's pages.
func (t *vertexTable) ordinal(v graph.VertexID) int {
	b := (uint64(v) - uint64(t.base)) >> t.shift // huge below base
	if b >= uint64(len(t.bucket)) {
		return -1
	}
	o := int(t.bucket[b])
	for t.firsts[o+1] <= v {
		o++
	}
	return o
}

// adjOf resolves the full adjacency list of v in a loaded window, and its
// forward split; ok is false when the window does not hold it.
func (lw *levelWindow) adjOf(v graph.VertexID) (adj []graph.VertexID, split int, ok bool) {
	if len(lw.side) > 0 {
		if i, ok := slices.BinarySearchFunc(lw.side, v, func(e sideEntry, v graph.VertexID) int {
			return cmp.Compare(e.v, v)
		}); ok {
			return lw.side[i].adj, lw.side[i].split, true
		}
	}
	o := lw.tab.ordinal(v)
	if o < 0 {
		return nil, 0, false
	}
	return lw.loaded[o].adjOf(v)
}

// adjOf resolves v among the page's complete records, in the run's graph
// version. Chunks of multi-page vertices never match: their lists live in
// the window's side table.
func (wp *windowPage) adjOf(v graph.VertexID) (adj []graph.VertexID, split int, ok bool) {
	if wp.page == nil {
		return nil, 0, false
	}
	i, ok := wp.page.Slot(v)
	if !ok {
		return nil, 0, false
	}
	return wp.list(i)
}

// list returns slot i's list and forward split through the page's slot
// index, overlay-merged where the run's snapshot touches it; ok is false for
// a chunk of a multi-page vertex.
func (wp *windowPage) list(i int) (adj []graph.VertexID, split int, ok bool) {
	adj, split, chunk := wp.page.List(i)
	if chunk {
		return nil, 0, false
	}
	if wp.lists != nil && wp.lists[i].set {
		l := &wp.lists[i]
		return l.adj, l.split, true
	}
	return adj, split, true
}

// processLevel drives the external traversal at level l >= 1 (Algorithm 2).
// A middle level iterates merged windows nested inside the current windows
// of all earlier levels, computing the next level's candidates from each;
// the last level is not chopped into windows at all — it streams, one pass
// per window of the level above (streamPass). Level 1 is not iterated
// here: its windows arrive pinned from the run's Sweep (Algorithm 1 lines
// 7-16 are Sweep.Load, Rider.ProcessWindow and Sweep.Release).
func (r *run) processLevel(l int) error {
	if l == r.k-1 {
		return r.streamPass()
	}
	merged, full := r.mergedCandidates(l)
	iter := windowIterator{r: r, level: l, merged: merged, full: full, cur: r.e.pages.Cursor()}
	defer r.openLevel(l)()
	for iter.next() {
		// Cancellation gate: every window iteration at every level checks
		// the run's context, so a cancel stops the traversal within one
		// window regardless of depth.
		if err := r.gate(); err != nil {
			return err
		}
		ord := r.windowsPer[l] + 1 // 1-based window ordinal at this level
		r.openWindow(l, ord, iter.windowBounds)
		lw, err := r.loadWindow(l, ord, iter.lo, iter.hi, iter.pages)
		if err != nil {
			return err
		}
		r.winData[l] = lw
		r.countWindow(l)
		r.computeChildCandidates(l)
		err = r.processLevel(l + 1)
		r.clearChildCandidates(l)
		r.unloadWindow(lw)
		if err != nil {
			return err
		}
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

// openLevel opens level l's span, nested under the enclosing window or, at
// level 1, the query span; the returned function closes it.
func (r *run) openLevel(l int) func() {
	span := r.scope.NextSpanID()
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

// openWindow mints the span of level l's window ord, b, and traces
// window_open; closeWindow traces the matching window_close.
func (r *run) openWindow(l, ord int, b windowBounds) {
	r.winSpan[l] = r.scope.NextSpanID()
	r.winStart[l] = time.Now()
	r.emit(obs.Event{Event: "window_open", Level: l + 1, Window: ord, Verts: b.n, Lo: uint64(b.lo), Hi: uint64(b.hi),
		Span: r.winSpan[l], Parent: r.levelSpan[l]})
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
	r.scope.Windows.Add(1)
}

// settleWindowCounts merges a completed window's task-local counts into the
// run totals and the run's scope. A window that failed is never settled.
func (r *run) settleWindowCounts(lw *levelWindow) {
	in, ex := lw.internal.Swap(0), lw.external.Swap(0)
	if !addCount(&r.internalCount, in) || !addCount(&r.externalCount, ex) {
		r.fail(r.countOverflow(""))
	}
	r.scope.EmbInternal.Add(in)
	r.scope.EmbExternal.Add(ex)
}

// emitCheckpoint delivers the current frontier to the run's checkpoint
// callback (orchestrator goroutine only; cursor is the vertex ID the next
// level-1 window starts at).
func (r *run) emitCheckpoint(cursor int) {
	if r.onCheckpoint == nil {
		return
	}
	r.scope.Checkpoints.Add(1)
	r.onCheckpoint(Checkpoint{
		K:        r.k,
		Cursor:   cursor,
		Windows:  r.windowsPer[0],
		Internal: r.internalCount.Load(),
		External: r.externalCount.Load(),
	})
}

// mergedCandidates returns the merged candidate vertex sequence for level l:
// every vertex (full) when some group's node there is a forest root, else
// the sorted union of every group's candidate sequence — the one list
// itself when only one group has any, else taken through the run's scratch
// set (which computeChildCandidates has made by then).
func (r *run) mergedCandidates(l int) (merged []graph.VertexID, full bool) {
	var lists [][]graph.VertexID
	for g := range r.cand {
		if r.root(g, l) {
			return nil, true
		}
		if c := r.cand[g][l]; len(c) > 0 {
			lists = append(lists, c)
		}
	}
	if len(lists) == 1 {
		return lists[0], false
	}
	set := r.candSet()
	for _, list := range lists {
		set.add(list)
	}
	return set.drain(nil), false
}

// vertexSet is the run's scratch set over the vertex IDs, one bit each: the
// one way candidate sequences are unioned. add marks ascending lists, drain
// reads the marks out ascending — duplicate-free by construction, into the
// memory it is handed, which aliases no input — and leaves the set empty.
// Only the words add touched are visited, so a small union over a large graph
// costs what it spans. Orchestrator only.
type vertexSet struct {
	words []uint64
	// lo, hi bound the touched words: words[lo:hi]; lo >= hi when empty.
	lo, hi int
}

// newVertexSet returns an empty set over the IDs below n.
func newVertexSet(n int) vertexSet {
	words := make([]uint64, (n+63)/64)
	return vertexSet{words: words, lo: len(words)}
}

// candSet returns the run's scratch set, empty, made on first use.
func (r *run) candSet() *vertexSet {
	if r.set.words == nil {
		r.set = newVertexSet(r.e.db.NumVertices())
	}
	return &r.set
}

// add marks every vertex of list, which ascends.
func (s *vertexSet) add(list []graph.VertexID) {
	if len(list) == 0 {
		return
	}
	s.lo = min(s.lo, int(list[0]>>6))
	s.hi = max(s.hi, int(list[len(list)-1]>>6)+1)
	for _, v := range list {
		s.words[v>>6] |= 1 << (v & 63)
	}
}

// drain returns the marked vertices ascending in dst's memory, grown when
// they do not fit (dst[:0] when there are none), and clears them.
func (s *vertexSet) drain(dst []graph.VertexID) []graph.VertexID {
	out := dst[:0]
	if s.lo >= s.hi {
		return out
	}
	n := 0
	for _, w := range s.words[s.lo:s.hi] {
		n += bits.OnesCount64(w)
	}
	out = slices.Grow(out, n)
	for i := s.lo; i < s.hi; i++ {
		for w := s.words[i]; w != 0; w &= w - 1 {
			out = append(out, graph.VertexID(i<<6+bits.TrailingZeros64(w)))
		}
		s.words[i] = 0
	}
	s.lo, s.hi = len(s.words), 0
	return out
}

// windowIterator chops a level's merged candidates into consecutive
// windows whose un-pinned page footprint fits the level's frame budget.
// Pages already pinned by outer windows do not consume budget, so windows
// are variably sized, exactly as in Section 5.1. The candidates are a list,
// or every vertex (full), which is cut from the page-first array without a
// look at the vertices in between (nextRange).
type windowIterator struct {
	r      *run
	level  int
	merged []graph.VertexID   // the candidates, unless full
	full   bool               // the candidates are every vertex
	cur    storage.PageCursor // walks the page-first array in step with the windows
	// start is where the next window starts: an index into merged, or a
	// vertex ID when full.
	start int
	// The current window, and its pages, ascending.
	windowBounds
	pages []storage.PageID
}

// windowBounds is a window of n candidates from vertex lo to vertex hi; a
// window of the full range lies on the pages first..last.
type windowBounds struct {
	n           int
	lo, hi      graph.VertexID
	first, last storage.PageID
}

func (it *windowIterator) next() bool {
	if it.full {
		return it.nextRange()
	}
	if it.start >= len(it.merged) {
		return false
	}
	// merged ascends and spans are monotone in the vertex ID, so the window's
	// own page set is the pages listed, ascending, with the first page not
	// yet listed as the only state.
	count := 0
	var next storage.PageID
	it.pages = nil
	i := it.start
	for ; i < len(it.merged); i++ {
		v := it.merged[i]
		first, last := it.cur.Span(v)
		// List the pages this vertex adds to the window's own set, counting
		// those outside the path-pinned set.
		listed := len(it.pages)
		for p := max(first, next); p <= last; p++ {
			it.pages = append(it.pages, p)
			if it.r.pathPinned[p] == 0 {
				count++
			}
		}
		if count > it.r.winBudget[it.level] {
			it.pages = it.pages[:listed]
			if i == it.start {
				return it.tooWide(v, first, last)
			}
			break
		}
		next = max(next, last+1)
	}
	it.windowBounds = windowBounds{n: i - it.start, lo: it.merged[it.start], hi: it.merged[i-1]}
	it.start = i
	return true
}

// nextRange cuts the next window of the full vertex range. From the first
// page of the window's first vertex s, q is the first page at which the
// un-pinned pages counted would exceed the budget. Every vertex below
// First(q) ends before q and First(q) does not, whether or not q begins with
// a continuation, so the window is s..First(q)−1 — what a walk of the
// vertices would take — on the pages up to the last of First(q)−1; First(q)
// = s is a vertex wider than the budget.
func (it *windowIterator) nextRange() bool {
	r, f := it.r, it.r.e.pages
	s, end := graph.VertexID(it.start), graph.VertexID(r.e.db.NumVertices())
	if s >= end {
		return false
	}
	first, last := it.cur.Span(s)
	for q, count := first, 0; int(q) < len(f); q++ {
		if r.pathPinned[q] > 0 {
			continue
		}
		if count++; count > r.winBudget[it.level] {
			end, _ = f.First(q)
			break
		}
	}
	if end <= s {
		return it.tooWide(s, first, last)
	}
	_, last = it.cur.Span(end - 1)
	it.windowBounds = windowBounds{n: int(end - s), lo: s, hi: end - 1, first: first, last: last}
	it.pages, it.start = pageRun(first, last), int(end)
	return true
}

// tooWide fails the run on vertex v, whose list alone exceeds the level's
// budget.
func (it *windowIterator) tooWide(v graph.VertexID, first, last storage.PageID) bool {
	it.r.fail(fmt.Errorf("core: vertex %d spans %d pages, exceeding the %d-frame budget of level %d; increase the buffer size",
		v, last-first+1, it.r.winBudget[it.level], it.level+1))
	return false
}

// pageRun lists the pages first..last.
func pageRun(first, last storage.PageID) []storage.PageID {
	pages := make([]storage.PageID, 0, last-first+1)
	for p := first; p <= last; p++ {
		pages = append(pages, p)
	}
	return pages
}

// loadWindow loads a window of a level above the last — deep levels from
// processLevel, level 1 from Sweep.Load on the sweep's run: it pins every
// page needed by the window's vertices, builds the window's index — each page
// callback its own ordinal, the run's overlay merged into the records it
// touches, without a lock; then its vertex table and the side table of
// multi-page vertices — and
// splits the window per group. The window is the vertices lo..hi on pages,
// which ascend (windowIterator). What callers differ in arrives as state of
// the run it is called on: the error sink (run.err), the pinned overlay
// snapshot and the memory of the level's vertex table. A read error here has
// already outlived the read path's retry budget (Options.Retry) and fails the
// run; on error the window is already unloaded.
func (r *run) loadWindow(l, ord int, lo, hi graph.VertexID, pages []storage.PageID) (*levelWindow, error) {
	lw := &levelWindow{verts: make([][]graph.VertexID, len(r.p.Groups)), lo: lo, hi: hi,
		pages: pages, loaded: make([]windowPage, len(pages))}
	// Window membership per group: a root's is the window's range itself,
	// any other node's the part of its candidate sequence inside it.
	for g := range r.p.Groups {
		if !r.root(g, l) {
			lw.verts[g] = sliceRange(r.cand[g][l], lo, hi)
		}
	}

	var wg sync.WaitGroup
	onPage := func(pid storage.PageID, page *storage.Page, err error) {
		if err == nil {
			o, _ := slices.BinarySearch(lw.pages, pid)
			lw.loaded[o].page = page
			err = r.indexPage(&lw.loaded[o])
		}
		r.fail(err)
	}
	for _, pid := range pages {
		r.pathPinned[pid]++
	}
	wg.Add(len(pages))
	r.issueRuns(pages, &wg, onPage)
	waitStart := time.Now()
	wg.Wait()
	r.bookLoad(l, ord, len(pages), time.Since(waitStart))
	if err := r.firstErr(); err != nil {
		r.unloadWindow(lw)
		return nil, err
	}
	r.tables[l].build(lw.loaded)
	lw.tab = r.tables[l]
	r.buildSide(lw)
	return lw, nil
}

// issueRuns is the engine's one issuer of reads: it schedules pages, which
// ascend, as maximal contiguous runs — the pool serves each with one
// simulated seek and one device request per non-resident stretch, and
// delivers its pages in order to cb on an I/O worker, pinned. Both callers read for the
// window that is open and nothing else: loadWindow all of a window's pages at
// once, streamPass a last-level pass's pages as its frame budget frees up.
func (r *run) issueRuns(pages []storage.PageID, wg *sync.WaitGroup, cb func(storage.PageID, *storage.Page, error)) {
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j] == pages[j-1]+1 {
			j++
		}
		r.e.pool.AsyncReadRunContext(r.ctx, pages[i], j-i, wg, cb)
		i = j
	}
}

// bookLoad accounts one window load (or last-level pass) of the given page
// count during which the orchestrator spent wait blocked on reads.
func (r *run) bookLoad(l, ord, pages int, wait time.Duration) {
	r.scope.IOWaitNanos.Add(uint64(wait.Nanoseconds()))
	r.em.windowLoadUS.Observe(wait.Microseconds())
	r.em.windowPages.Observe(int64(pages))
	if r.tracer != nil {
		r.emit(obs.Event{Event: "window_pinned", Level: l + 1, Window: ord,
			Pages: pages, DurUS: wait.Microseconds(), Span: r.winSpan[l]})
	}
}

// indexPage holds the page to the page-first array (a page whose records
// were renamed under a valid checksum fails the run, its pin released with
// its window's), notes whether any of its records is a chunk of a
// multi-page vertex and fills wp.lists: (base ∪ adds) \ tombstones for every
// complete record the run's overlay touches, in the vertex window or not —
// descent-time lookups resolve any indexed vertex, and all of them must agree
// on the graph version. It reads the page through its slot index: the pool's
// parse has already checked that the records are the dense vertex-ID run the
// slot arithmetic relies on. It runs in the page's own load callback, so the
// page is complete before any task can see it, and books the page's
// compressed records and merged vertices. The merged lists are copies: like
// every list taken from a page, the page's own are valid only while pinned.
func (r *run) indexPage(wp *windowPage) error {
	p := wp.page
	if err := r.e.pages.CheckPage(p); err != nil {
		return err
	}
	if crecs, cbytes := p.Compressed(); crecs > 0 {
		r.em.compressedRecs.Add(uint64(crecs))
		r.em.compressedBytes.Add(uint64(cbytes))
	}
	first := p.First()
	var mutated uint64
	total := 0
	for i := 0; i < p.Slots(); i++ {
		adj, _, chunk := p.List(i)
		wp.chunked = wp.chunked || chunk
		if chunk || r.overlay == nil {
			continue
		}
		if d := r.overlay.Of(first + graph.VertexID(i)); d != nil {
			total += len(adj) + len(d.Add)
			mutated++
		}
	}
	if mutated == 0 {
		return nil
	}
	r.em.overlayVertices.Add(mutated)
	slab := make([]graph.VertexID, 0, total)
	wp.lists = make([]slotList, p.Slots())
	for i := range wp.lists {
		adj, _, chunk := p.List(i)
		v := first + graph.VertexID(i)
		if d := r.overlay.Of(v); d != nil && !chunk {
			start := len(slab)
			slab = d.AppendMerged(slab, adj)
			merged := slab[start:len(slab):len(slab)]
			wp.lists[i] = slotList{adj: merged, split: forwardSplit(merged, v), set: true}
		}
	}
	return nil
}

// buildSide fills the window's side table in one ascending pass over the
// pages holding chunks of multi-page vertices, between the last page callback
// and the seal. The chunks are concatenated into a list of the window's own —
// window chopping keeps a vertex's span inside one window, so all of them are
// present — and the run's overlay applied to the whole list. A list is whole
// when its first chunk here starts it (is no continuation), each later one
// lies on the next page, and its last one continues nowhere; any other run of
// chunks belongs to a vertex whose span leaves the window, never matched here.
func (r *run) buildSide(lw *levelWindow) {
	var cur sideEntry // the multi-page vertex being assembled
	whole, at := false, storage.InvalidPage
	for o := range lw.loaded {
		wp := &lw.loaded[o]
		if !wp.chunked {
			continue
		}
		p := wp.page
		for i := 0; i < p.Slots(); i++ {
			adj, _, chunk := p.List(i)
			if !chunk {
				continue
			}
			continues, continuation := p.Chunk(i)
			v := p.First() + graph.VertexID(i)
			if cur.v != v || !continuation || p.ID != at+1 {
				cur, whole = sideEntry{v: v}, !continuation
			}
			cur.adj, at = append(cur.adj, adj...), p.ID
			if continues || !whole {
				continue
			}
			if r.overlay != nil && r.overlay.Of(v) != nil {
				cur.adj = r.overlay.Apply(v, cur.adj)
				r.em.overlayVertices.Inc()
			}
			cur.split = forwardSplit(cur.adj, v)
			lw.side = append(lw.side, cur)
		}
	}
}

// unloadWindow releases the window: path-pin accounting covers every page
// the window asked for, but only successfully loaded pages hold a buffer
// pin (loads can fail mid-window).
func (r *run) unloadWindow(lw *levelWindow) {
	for o, pid := range lw.pages {
		r.pathPinned[pid]--
		if r.pathPinned[pid] == 0 {
			delete(r.pathPinned, pid)
		}
		if lw.loaded[o].page != nil {
			r.e.pool.Unpin(pid)
		}
	}
	lw.pages = nil
	lw.loaded = nil
}

// computeChildCandidates fills cand[g][child] for every child of each
// group's node at level l from the group's current vertex window (a root's:
// the window's ID range), applying the total-order pruning of Lemma 1: if
// the child's position follows (precedes) the parent's, only larger
// (smaller) neighbors qualify. The qualifying neighbours are marked in the
// run's scratch set and read out ascending into the child's own memory: no
// sort, no duplicates to drop.
func (r *run) computeChildCandidates(l int) {
	lw := r.winData[l]
	set := r.candSet()
	for g, vg := range r.p.Groups {
		for _, child := range vg.Forest.Children[l] {
			forward := r.p.MatchingOrder[child] > r.p.MatchingOrder[l]
			add := func(v graph.VertexID) {
				if adj, i, _ := lw.adjOf(v); forward {
					set.add(adj[i:])
				} else {
					set.add(adj[:i])
				}
			}
			if r.root(g, l) {
				for v := lw.lo; v <= lw.hi; v++ {
					add(v)
				}
			} else {
				for _, v := range lw.verts[g] {
					add(v)
				}
			}
			r.cand[g][child] = set.drain(r.cand[g][child])
			r.em.candSize.Observe(int64(len(r.cand[g][child])))
		}
	}
}

// clearChildCandidates empties the candidate sequences computed by
// computeChildCandidates(l), keeping their memory for the next window's.
func (r *run) clearChildCandidates(l int) {
	for g, vg := range r.p.Groups {
		for _, child := range vg.Forest.Children[l] {
			r.cand[g][child] = r.cand[g][child][:0]
		}
	}
}

// dispatchInternal schedules internal subgraph enumeration over the level-0
// window — every group's level-1 node is a root, so its candidates are the
// window's ID range — chunked so workers share it. Chunks are coarse — one
// per thread per group — because running tasks re-split whenever the queue
// drains (see internalEnumerate).
func (r *run) dispatchInternal(lw *levelWindow) {
	r.emit(obs.Event{Event: "internal_enum", Level: 1, Window: r.windowsPer[0], Verts: int(lw.hi-lw.lo+1) * len(r.p.Groups),
		Span: r.winSpan[0]})
	threads := graph.VertexID(r.e.opts.Threads)
	size := (lw.hi - lw.lo + threads) / threads // ⌈window / threads⌉
	for g := range r.p.Groups {
		for lo := lw.lo; lo <= lw.hi; lo += size {
			r.workers.submit(func() { r.internalEnumerate(g, lo, min(lo+size, lw.hi+1), lw) })
		}
	}
}

// sliceRange returns the subslice of the sorted duplicate-free list with
// values in [lo, hi]. An end already inside the range costs one comparison,
// not a search: most calls cut one side only.
func sliceRange(list []graph.VertexID, lo, hi graph.VertexID) []graph.VertexID {
	if n := len(list); n > 0 && list[0] < lo {
		i, _ := slices.BinarySearch(list, lo)
		list = list[i:]
	}
	if n := len(list); n > 0 && list[n-1] > hi {
		j, found := slices.BinarySearch(list, hi)
		if found {
			j++
		}
		list = list[:j]
	}
	return list
}
