package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// This file is the last level of the external traversal. The paper sizes it
// at 2 × threads frames — one page being matched, one read in flight, per
// thread — because it streams: nothing descends from a last-level vertex, so
// its page is needed exactly as long as its own records are being matched.
// A pass therefore has no window to chop, seal, drain and unload: the merged
// candidate pages are read once, in ascending coalesced runs, each page
// matched by its own task as it lands and unpinned when that task ends, with
// at most the level's frame budget pinned at any moment.

// streamPass runs the last level under the current windows of all earlier
// levels: one streamed pass over the merged candidate sequence, or over every
// vertex when some group's node there is a forest root (Algorithm 2's last
// iteration with EXTVERTEXMAPPING as the page callback). It counts and traces
// as one window of the level. A read error has already outlived the read
// path's retry budget (Options.Retry) and fails the run: on failure
// everything the pass issued has landed, every task it queued has ended and
// nothing stays pinned.
func (r *run) streamPass() error {
	l := r.k - 1
	merged, full := r.mergedCandidates(l)
	b := windowBounds{n: len(merged)}
	if full {
		b.n, b.hi = r.e.db.NumVertices(), graph.VertexID(r.e.db.NumVertices()-1)
	} else if b.n > 0 {
		b.lo, b.hi = merged[0], merged[b.n-1]
	}
	defer r.openLevel(l)()
	if err := r.gate(); err != nil {
		return err
	}
	ord := r.windowsPer[l] + 1
	r.openWindow(l, ord, b)
	s := &stream{r: r, lw: &levelWindow{}, free: r.winBudget[l]}
	s.plan(merged, full)
	err := s.run()
	r.bookLoad(l, ord, len(s.lw.pages), s.wait)
	if err != nil {
		return err
	}
	r.countWindow(l)
	if r.tracer != nil {
		r.emit(obs.Event{Event: "external_enum", Level: l + 1, Window: ord, Verts: b.n,
			DurUS: time.Since(r.winStart[l]).Microseconds(), Span: r.winSpan[l]})
	}
	r.settleWindowCounts(s.lw)
	r.closeWindow(l, ord)
	return r.firstErr()
}

// stream is the state of one last-level pass. Everything but events belongs
// to the run's orchestrator: I/O workers and matching tasks report to it
// through the channel and it alone pins, unpins and counts, so the pass needs
// no lock and no atomic.
type stream struct {
	r  *run
	lw *levelWindow // the pass: page list, index and tallies
	// spans are the multi-page candidates, ascending. No single record holds
	// such a vertex's list, so its pages stay pinned until the last chunk has
	// landed; then it is rooted once, from the concatenation.
	spans []streamSpan
	// holds[o] counts what still needs page o pinned: its own matching task
	// and every span over it that has not been rooted.
	holds []int32
	// events carries every report, sized so that no sender ever waits: per
	// page one landing, one refused task and one task end, per span one task
	// end.
	events chan streamEvent

	free   int // frames of the level's budget not pinned by the pass
	next   int // first ordinal not yet issued
	landed int // pages whose load callback has reported
	tasks  int // matching tasks queued or running
	// wait is the time blocked with reads outstanding — the I/O the matching
	// did not hide. Time blocked on matching alone is not I/O wait.
	wait time.Duration
}

// streamSpan is one multi-page candidate of a pass: the ordinals of its span
// and the number of its pages that have not landed.
type streamSpan struct {
	v           graph.VertexID
	first, last int
	missing     int
}

// streamEvent is one report to the orchestrator: a refused matching task to
// queue (task set), the end of a matching task (done; ord is its page, the
// page count plus its index for a span's), or else the landing of page ord,
// indexed and ready when ok.
type streamEvent struct {
	ord  int
	ok   bool
	done bool
	task func()
}

// budgeted reports whether page o counts against the level's budget: a page
// some outer window path-pins is resident anyway and takes no frame.
func (s *stream) budgeted(o int) bool { return s.r.pathPinned[s.lw.pages[o]] == 0 }

// plan lists the pass's pages and its multi-page candidates, located by one
// cursor over the page-first array: in one walk of merged's vertices, or,
// when full, of the vertices that begin a page. Every page begins with one,
// and so does a continuation page of every multi-page vertex; a vertex's
// other continuation pages are skipped.
func (s *stream) plan(merged []graph.VertexID, full bool) {
	lw, f := s.lw, s.r.e.pages
	cur := f.Cursor()
	var next storage.PageID
	add := func(v graph.VertexID) storage.PageID {
		first, last := cur.Span(v)
		for p := max(first, next); p <= last; p++ {
			lw.pages = append(lw.pages, p)
		}
		if next = max(next, last+1); first < last {
			o := len(lw.pages) - 1 // last's ordinal
			s.spans = append(s.spans, streamSpan{v: v, first: o - int(last-first), last: o, missing: int(last-first) + 1})
		}
		return last
	}
	for _, v := range merged {
		add(v)
	}
	for p := storage.PageID(0); full && int(p) < len(f); p++ {
		v, _ := f.First(p)
		p = add(v)
	}
	lw.loaded = make([]windowPage, len(lw.pages))
	s.holds = make([]int32, len(lw.pages))
	for o := range s.holds {
		s.holds[o] = 1
	}
	for _, sp := range s.spans {
		for o := sp.first; o <= sp.last; o++ {
			s.holds[o]++
		}
	}
	s.events = make(chan streamEvent, 3*len(lw.pages)+len(s.spans))
}

// run drives the pass: issue while the budget allows, otherwise serve the
// next report. Reads are issued once half the budget is free (or the rest of
// the pass fits, or nothing else is left to free a frame) — the double
// buffering the 2 × threads allocation is sized for — so that runs stay
// coalesced instead of trickling out a page per finished task. It returns
// when every page has been matched, or — after a failure or a cancel — when
// what was already issued has settled; whatever is still pinned then is
// released here.
func (s *stream) run() error {
	r, n := s.r, len(s.lw.pages)
	refill := max(1, s.free/2) // nothing is pinned yet: free is the whole budget
	for {
		busy := s.next - s.landed + s.tasks
		if s.next < n && r.gate() == nil && (s.free >= refill || n-s.next <= s.free || busy == 0) {
			if !s.issue() {
				// Nothing in flight and not a frame free: a multi-page vertex
				// wider than the budget holds all of it, waiting for a chunk
				// that cannot be issued. ensureSpanBudget rules that out at
				// plan time; fail rather than wait forever if it ever does not.
				r.fail(fmt.Errorf("core: a vertex on page %d spans more than the %d-frame budget of level %d; increase the buffer size",
					s.lw.pages[s.next], r.winBudget[r.k-1], r.k))
			}
			continue
		}
		if busy == 0 {
			break
		}
		s.handle(s.receive())
	}
	for o := 0; o < s.next; o++ {
		if s.holds[o] > 0 && s.lw.loaded[o].page != nil {
			r.e.pool.Unpin(s.lw.pages[o])
		}
	}
	return r.firstErr()
}

// issue reads ahead from the first page not yet issued as far as the free
// frames reach, reporting whether that was any page at all.
func (s *stream) issue() bool {
	start := s.next
	for ; s.next < len(s.lw.pages); s.next++ {
		if s.budgeted(s.next) {
			if s.free == 0 {
				break
			}
			s.free--
		}
	}
	s.r.issueRuns(s.lw.pages[start:s.next], nil, s.onPage)
	return s.next > start
}

// receive takes the next report, booking the time it blocks as I/O wait when
// a read is outstanding.
func (s *stream) receive() streamEvent {
	select {
	case ev := <-s.events:
		return ev
	default:
	}
	if s.landed == s.next {
		return <-s.events
	}
	start := time.Now()
	ev := <-s.events
	s.wait += time.Since(start)
	return ev
}

// onPage is the pass's load callback, on an I/O worker: index the page,
// report it, and queue its matching task. An I/O worker never waits for a
// queue slot — a task the full queue refuses goes to the orchestrator, which
// can. The landing is reported before the task can run, so the orchestrator
// hears of a page before it hears of its task's end.
func (s *stream) onPage(pid storage.PageID, page *storage.Page, err error) {
	r, lw := s.r, s.lw
	o, _ := slices.BinarySearch(lw.pages, pid)
	wp := &lw.loaded[o]
	if err == nil {
		wp.page = page
		err = r.indexPage(wp)
	}
	r.fail(err)
	s.events <- streamEvent{ord: o, ok: err == nil}
	if err != nil {
		return
	}
	task := func() {
		r.extMapPage(wp, lw)
		s.events <- streamEvent{ord: o, done: true}
	}
	if !r.workers.trySubmit(task) {
		s.events <- streamEvent{task: task}
	}
}

// handle applies one report.
func (s *stream) handle(ev streamEvent) {
	switch {
	case ev.task != nil:
		s.r.workers.submit(ev.task)
	case ev.done:
		s.tasks--
		if ev.ord < len(s.lw.pages) {
			s.release(ev.ord)
		}
	default:
		s.landed++
		if !ev.ok {
			return
		}
		s.tasks++ // the page's own task, queued by onPage or on its way here
		i, _ := slices.BinarySearchFunc(s.spans, ev.ord, func(sp streamSpan, o int) int {
			return cmp.Compare(sp.last, o)
		})
		for ; i < len(s.spans) && s.spans[i].first <= ev.ord; i++ {
			if s.spans[i].missing--; s.spans[i].missing == 0 {
				s.root(i)
			}
		}
	}
}

// release drops one hold on page o; the last one unpins it, forgets it —
// a pass keeps hold of no more parsed pages than its budget pins — and
// returns its frame to the budget.
func (s *stream) release(o int) {
	if s.holds[o]--; s.holds[o] > 0 {
		return
	}
	s.r.e.pool.Unpin(s.lw.pages[o])
	s.lw.loaded[o] = windowPage{}
	if s.budgeted(o) {
		s.free++
	}
}

// root matches a multi-page candidate whose last chunk has just landed: its
// list is assembled the way a window's side table is — chunks concatenated,
// the overlay applied to the whole — from the span's pages alone. The list is
// a copy, so the span is released before the task is even queued.
func (s *stream) root(i int) {
	r, lw, sp := s.r, s.lw, &s.spans[i]
	span := levelWindow{loaded: lw.loaded[sp.first : sp.last+1]}
	r.buildSide(&span)
	for o := sp.first; o <= sp.last; o++ {
		s.release(o)
	}
	if len(span.side) != 1 || span.side[0].v != sp.v {
		r.fail(&storage.CorruptPageError{Page: lw.pages[sp.first],
			Reason: fmt.Sprintf("pages %d-%d do not hold the adjacency list of vertex %d the page-first array spreads over them",
				lw.pages[sp.first], lw.pages[sp.last], sp.v)})
		return
	}
	e := span.side[0]
	id := len(lw.pages) + i
	s.tasks++
	r.workers.submit(func() {
		r.extMapVertex(e, lw)
		s.events <- streamEvent{ord: id, done: true}
	})
}
