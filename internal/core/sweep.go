package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"dualsim/internal/buffer"
	"dualsim/internal/obs"
	"dualsim/internal/plan"
)

// This file is the engine's level-1 scan source: one Sweep owns the buffer
// pool and drives a single level-1 window cycle over the vertex range,
// while its Riders — one per in-flight query — evaluate their own v-group
// forests against each pinned window before the sweep advances. Every run
// goes through it. A solo run (Engine.RunSpecContext) is a sweep of one:
// a private sweep planned from the run's own budgets and resume cursor,
// with the run as its single rider. A cohort (see internal/sharedscan for
// the scheduler) is the same sweep with a plan-independent level-1 budget,
// any number of riders, and the frames below level 1 dealt among the riders
// on board at every window boundary (cohortBudget).
//
// The design leans on two engine invariants:
//
//   - Level 1 is always a forest root, so every plan's level-1 merged
//     candidate sequence is the full vertex range. One partition therefore
//     serves every query on the database, regardless of query shape.
//   - The total embedding count is invariant under level-1 window chopping
//     (each embedding is counted exactly once, by the window containing its
//     first matching-order position — the Checkpoint contract). The cycle
//     may start anywhere: a rider that joins at window i and consumes
//     i..m-1, 0..i-1 sums the same per-window tallies as a solo run, so
//     rider counts are bit-identical to solo execution.

// ErrRiderNotEligible reports a query a cohort sweep cannot carry: riders
// of one sweep share one graph snapshot and one start, so a live-ingest
// overlay or a resume cursor — which a solo run simply hands to its own
// sweep of one — would have to hold for every other rider too; or the plan
// is too deep for the equal share of the deep pool, the least a deal may
// leave a rider whose seats are all taken by plans as deep (cohortBudget).
// Callers fall back to a solo engine; nothing about the query is wrong.
var ErrRiderNotEligible = errors.New("core: query not eligible for the shared sweep; run it solo")

// SweepOptions configures Engine.NewSweep.
type SweepOptions struct {
	// MaxRiders bounds concurrent riders (default 1). It fixes the split of
	// the pool's frames into the sweep's level-1 budget and the deep pool —
	// MaxRiders equal shares of half the frames — that every window boundary
	// deals among the riders on board: the deals of one boundary never sum
	// to more than the deep pool, so the worst-case pin count never exceeds
	// the buffer, and no rider with a middle level is dealt less than the
	// equal share it was admitted on.
	MaxRiders int
	// Scope receives the sweep's attribution (when nil the sweep mints
	// one): it is installed as the pool's attribution sink for the sweep's
	// lifetime, so every physical page read of the cohort — the shared
	// level-1 loads and the riders' deep-level misses — is charged once, to
	// the sweep. Riders attribute their consumption of shared windows
	// through their own scopes' SharedPages instead.
	Scope *obs.Scope
}

// scanOnly is the plan of a cohort sweep's own run: one level and no
// v-groups, so the run loads level-1 windows and evaluates nothing.
var scanOnly = &plan.Plan{K: 1}

// Sweep is the level-1 scan source: the deterministic window partition of
// the vertex range plus the load/pin/release cycle of one window at a time
// against the engine's pool. Its loads run on r, the sweep's run — the
// loader's error sink, overlay snapshot, attribution scope and trace
// identity. For a solo run that is the query's own run (solo = sweep
// of one, created by Engine.RunSpecContext under its run guard); NewSweep
// gives a cohort sweep a scan-only run of its own and holds the engine's
// run guard until Close, so solo runs and cohort sweeps exclude each other
// per engine.
//
// A Sweep is driven by one orchestrating goroutine: Load/Release/NewRider/
// Close are not concurrently safe. Riders process delivered windows from
// their own goroutines.
type Sweep struct {
	r       *run           // the sweep's run; r.e is the engine
	bounds  []windowBounds // the partition: the vertex range and page run of each window
	ordBase int            // level-1 windows completed before bounds[0] (resume)

	// budget deals the frames below level 1 among riders, the cohort's riders
	// on board in boarding order (both zero on a solo run's sweep of one, whose
	// rider holds the run's own allocation).
	budget cohortBudget
	riders []*Rider
	closed bool
}

// cohortBudget is the frame policy of a cohort sweep, fixed by (frames,
// MaxRiders, Threads, maxSpan) alone: level 1 keeps frames − pool, and every
// level-1 window boundary deals pool among the riders on board as a pure
// function of their depths — never of who boarded first or when. What a
// frame is worth decides the deal (§5.3, Equation 1): a last level streams
// through 2 × threads frames and gains nothing from more, a middle level
// makes fewer windows — each a whole last-level pass — with every frame it
// gets.
type cohortBudget struct {
	// share is the equal share, pool / MaxRiders: what a full cohort of
	// middle-level riders leaves each of them, hence the eligibility test
	// (a plan that cannot run in share is not admitted) and the floor of
	// every such rider's deal.
	share int
	// pool is the frames the deals of one boundary may sum to.
	pool int
	// threadShare sizes a rider's last-level stream: its part of the
	// engine's threads when every seat is taken.
	threadShare int
	// maxSpan is the largest adjacency list in pages: the least any level
	// can work with.
	maxSpan int
}

func newCohortBudget(frames, maxRiders, threads, maxSpan int) cohortBudget {
	share := (frames / 2) / maxRiders
	return cohortBudget{share: share, pool: maxRiders * share,
		threadShare: max(1, threads/maxRiders), maxSpan: maxSpan}
}

// levels splits frames over the k − 1 deep levels of a k-level plan by the
// paper's allocation, each level raised to one maximal vertex: the one
// source of a cohort rider's budgets, at admission (frames = share) and in
// every deal.
func (c cohortBudget) levels(frames, k int) ([]int, error) {
	if k == 1 {
		return nil, nil
	}
	deep, err := buffer.Allocate(frames, k-1, c.threadShare, 0)
	if err == nil {
		err = ensureSpanBudget(deep, frames, c.maxSpan)
	}
	return deep, err
}

// deal splits the pool among riders of the given plan depths, all of them
// admitted (levels(share, k) holds): a one-level rider takes nothing; a
// two-level rider, whose only deep level is the stream, keeps what a stream
// can use — 2 × threadShare frames, one maximal vertex at least, its share
// at most — while a rider with a middle level is on board to use the rest,
// its whole share otherwise; the riders with a middle level divide equally
// everything else: what empty seats, one- and two-level riders leave, never
// less than share each.
func (c cohortBudget) deal(depths []int) ([][]int, error) {
	twoLevel, middle := 0, 0
	for _, k := range depths {
		switch {
		case k == 2:
			twoLevel++
		case k > 2:
			middle++
		}
	}
	stream, deep := c.share, 0
	if middle > 0 {
		stream = min(c.share, max(2*c.threadShare, c.maxSpan))
		deep = (c.pool - twoLevel*stream) / middle
	}
	out := make([][]int, len(depths))
	for i, k := range depths {
		frames := 0
		switch {
		case k == 2:
			frames = stream
		case k > 2:
			frames = deep
		}
		var err error
		if out[i], err = c.levels(frames, k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// NewSweep plans a cohort scan: it takes the engine's run guard and applies
// the cohort budget policy — half the pool, in MaxRiders equal shares, is
// the deep pool dealt among the riders on board at every window boundary
// (cohortBudget), the sweep's level-1 windows get the rest. The partition is
// then a pure function of the database layout and that level-1 budget, so it
// is identical across sweeps of the same engine and independent of any
// rider's plan or deal — the property late-join correctness rests on.
func (e *Engine) NewSweep(opts SweepOptions) (*Sweep, error) {
	opts.MaxRiders = max(opts.MaxRiders, 1)
	if !e.running.CompareAndSwap(false, true) {
		return nil, ErrEngineBusy
	}
	budget := newCohortBudget(e.frames, opts.MaxRiders, e.opts.Threads, e.maxSpan)
	b1 := e.frames - budget.pool
	if b1 < e.maxSpan {
		e.running.Store(false)
		return nil, fmt.Errorf("core: %d frames cannot give a shared sweep a %d-page level-1 budget beside %d riders; increase the buffer size",
			e.frames, e.maxSpan, opts.MaxRiders)
	}
	r := e.newRun(context.Background(), RunSpec{Plan: scanOnly, Scope: opts.Scope}, []int{b1})
	s, err := e.newSweep(r, 0)
	if err != nil {
		e.running.Store(false)
		return nil, err
	}
	s.budget = budget
	return s, nil
}

// newSweep builds the sweep whose loads run on r, partitioning the vertex
// range from vertex start against r's level-1 window budget: the window
// iterator over the full range with an empty path-pin set is the partition,
// kept as each window's vertices and page run. The caller holds the engine's
// run guard. r's scope becomes the pool's attribution sink until Close.
func (e *Engine) newSweep(r *run, start int) (*Sweep, error) {
	s := &Sweep{r: r, ordBase: r.windowsPer[0]}
	it := windowIterator{r: r, full: true, cur: e.pages.Cursor(), start: start}
	for it.next() {
		s.bounds = append(s.bounds, it.windowBounds)
	}
	if err := r.firstErr(); err != nil {
		return nil, err
	}
	e.pool.SetAttribution(r.scope)
	return s, nil
}

// Windows returns the number of level-1 windows in the sweep's partition —
// the cycle length every rider consumes exactly once.
func (s *Sweep) Windows() int { return len(s.bounds) }

// SweepWindow is one loaded, pinned level-1 window, delivered to
// every rider before Release. Riders read its index concurrently;
// the sweep owns its buffer pins.
type SweepWindow struct {
	lw    *levelWindow
	index int
	ord   int // 1-based trace ordinal
}

// Index returns the window's partition index.
func (w *SweepWindow) Index() int { return w.index }

// Pages returns the number of pages the window pinned (valid until
// Release).
func (w *SweepWindow) Pages() int { return len(w.lw.pages) }

// Load pins partition window idx through the engine's one window loader
// (run.loadWindow on the sweep's run): pages issued as coalesced ascending
// runs, split records merged, the run's overlay applied. The window traces as
// level 1 of the sweep's run: window_open and window_pinned here,
// window_close at Release.
// A load is the window boundary: no rider task is running and nothing below
// level 1 is pinned, so a cohort's deep pool is dealt anew among the riders
// on board first (deal). The third parameter has no effect; ROADMAP item 10(2)
// removes it.
func (s *Sweep) Load(ctx context.Context, idx, _ int) (*SweepWindow, error) {
	r := s.r
	r.ctx = ctx // a cohort sweep's loads observe each caller's context
	if err := r.gate(); err != nil {
		return nil, err
	}
	s.deal()
	b := s.bounds[idx]
	w := &SweepWindow{index: idx, ord: s.ordBase + idx + 1}
	r.openWindow(0, w.ord, b)
	lw, err := r.loadWindow(0, w.ord, b.lo, b.hi, pageRun(b.first, b.last))
	if err != nil {
		return nil, err
	}
	w.lw = lw
	return w, nil
}

// deal writes the boundary's budgets (cohortBudget.deal over the depths on
// board) into the riders' runs, before the orchestrator starts their
// ProcessWindow goroutines. A solo run's sweep of one has no riders on its
// list and is never dealt.
func (s *Sweep) deal() {
	depths := make([]int, len(s.riders))
	for i, rd := range s.riders {
		depths[i] = rd.r.k
	}
	budgets, err := s.budget.deal(depths)
	for i, rd := range s.riders {
		if err != nil {
			rd.r.fail(err) // unreachable for admitted riders: a deal is never below the share
			continue
		}
		copy(rd.r.winBudget[1:], budgets[i])
		rd.frames = max(rd.frames, sum(budgets[i]))
	}
}

func sum(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}

// Release unpins a delivered window. Every rider must have returned from
// ProcessWindow first — their adjacency reads are only valid while the
// sweep's pins hold the pages resident. The window boundary is where the
// sweep's scope and every rider's settle into the registry; Release returns
// the cohort's share of that settle: the pages the sweep read and the shared
// pages its riders consumed since the last one.
func (s *Sweep) Release(w *SweepWindow) (read, shared uint64) {
	s.r.unloadWindow(w.lw)
	s.r.closeWindow(0, w.ord)
	return s.settle()
}

// settle settles the sweep's scope and each rider's (see Release).
func (s *Sweep) settle() (read, shared uint64) {
	read = s.r.e.settle(s.r.scope).PagesRead
	for _, rd := range s.riders {
		shared += s.r.e.settle(rd.r.scope).SharedPages
	}
	return read, shared
}

// Close ends a sweep, a cohort's or a solo run's: the pool's attribution
// slot released, the engine's run guard returned, and what was counted since
// the last Release settled, returned as Release returns it. The sweep is
// unusable afterwards.
func (s *Sweep) Close() (read, shared uint64) {
	if s.closed {
		return 0, 0
	}
	s.closed = true
	s.r.e.pool.SetAttribution(nil)
	defer s.r.e.running.Store(false)
	return s.settle()
}

// Rider is one query riding a Sweep: a full run state (own worker pool,
// own deep-level budget — on a cohort whatever the last boundary dealt it,
// a function of the depths riding beside it — own scope and spans, own path
// pins) whose level-1 windows arrive pinned from the sweep instead of being
// iterated by the run itself. A rider consumes every partition window
// exactly once, in cycle order from wherever it joined; commutativity of the
// per-window tallies makes the total independent of the starting point, and
// their being window-local makes it independent of the deals. A solo run is the
// single rider of its own sweep of one — there rd.r is also the sweep's
// run, so the windows it evaluates were loaded, traced and paid for under
// its own identity.
type Rider struct {
	s         *Sweep
	r         *run
	frames    int // Result.BufferFrames: the pool (solo) or the largest deal the rider had
	startExec time.Time
	rootSpan  uint64
	levelEnd  func() // closes the level-1 span; nil once closed

	// joinIndex is the partition index of the first window consumed (-1
	// until then). Riders that join at index 0 emit checkpoints — their
	// consumed prefix is exactly the solo iterator's; late joiners have no
	// solo-meaningful cursor and stay silent.
	joinIndex int
	processed int
	closed    bool
}

// NewRider boards a cohort rider for spec on the sweep. Its deep levels run
// in what the cohort's deals give it (cohortBudget.deal): the first at once,
// with the riders already on board, the next at every window boundary
// (Load), until Close takes it off the list. Its worker pool has all of the
// engine's threads: riders of one sweep advance in lock step, so a rider
// whose window is done leaves its cores to the ones still matching. Resume
// and overlay specs (riders of one sweep share one snapshot and one start)
// and plans whose deep levels cannot fit the equal share — the least a deal
// may leave them — return ErrRiderNotEligible (wrapped); the caller runs
// those solo. Like Load, NewRider and Rider.Close belong to the sweep's
// orchestrating goroutine.
func (s *Sweep) NewRider(ctx context.Context, spec RunSpec) (*Rider, error) {
	p, e := spec.Plan, s.r.e
	if p == nil {
		return nil, fmt.Errorf("core: RunSpec without a plan")
	}
	if spec.Resume != nil {
		return nil, fmt.Errorf("%w: a checkpoint resume starts mid-range, the sweep's riders share its start", ErrRiderNotEligible)
	}
	if spec.Overlay != nil && !spec.Overlay.Empty() {
		return nil, fmt.Errorf("%w: a live-ingest overlay is one query's snapshot, the sweep's riders share its windows", ErrRiderNotEligible)
	}
	if _, err := s.budget.levels(s.budget.share, p.K); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRiderNotEligible, err)
	}
	// winBudget[0] stays 0: the rider never loads level 1 — the sweep owns
	// those pins.
	rd := &Rider{s: s, r: e.newRun(ctx, spec, make([]int, p.K))}
	s.riders = append(s.riders, rd)
	s.deal()
	return rd.board(), nil
}

// board starts the rider: worker pool up, the run counted and traced
// (run_start with the frames it boards on, the level-1 span).
func (rd *Rider) board() *Rider {
	r := rd.r
	r.workers = newWorkerPool(r.e.opts.Threads, r.em.workerSubmitted, r.em.workerCompleted)
	r.em.runs.Inc()
	rd.startExec, rd.joinIndex = time.Now(), -1
	r.querySpan, rd.rootSpan = r.scope.NextSpanID(), r.scope.RootSpan()
	r.emit(obs.Event{Event: "run_start", Levels: r.k, Frames: rd.frames,
		Span: r.querySpan, Parent: rd.rootSpan})
	rd.levelEnd = r.openLevel(0)
	return rd
}

// Done reports that the rider has consumed every partition window.
func (rd *Rider) Done() bool { return rd.processed >= len(rd.s.bounds) }

// ProcessWindow evaluates the rider's plan against one delivered window
// (Algorithm 1 lines 11-16): child candidates, internal enumeration
// overlapped with the external traversal of the deeper levels, settle. On
// return no rider task is running — the sweep may release the window's
// pins.
func (rd *Rider) ProcessWindow(w *SweepWindow) error {
	r := rd.r
	if err := r.gate(); err != nil {
		return err
	}
	if rd.joinIndex < 0 {
		rd.joinIndex = w.index
	}
	// Rider-local view: the shared read-only index, own window-local
	// tallies. Every group's level-1 node is a root, whose candidates are the
	// window's range: no group lists any. It is never unloaded — the sweep
	// owns the buffer pins.
	src := w.lw
	lw := &levelWindow{
		lo:     src.lo,
		hi:     src.hi,
		pages:  src.pages,
		loaded: src.loaded,
		tab:    src.tab,
		side:   src.side,
	}
	// Path-pin accounting: deep-level windows treat the level-1 pages as
	// free budget. (On a sweep of one the loader counted them on this same
	// run already; the counts nest.)
	for _, pid := range lw.pages {
		r.pathPinned[pid]++
	}
	releasePins := func() {
		for _, pid := range lw.pages {
			r.pathPinned[pid]--
			if r.pathPinned[pid] == 0 {
				delete(r.pathPinned, pid)
			}
		}
	}
	r.winData[0] = lw
	// A cohort rider evaluates a window loaded under the sweep's identity:
	// it traces its own view of it and books the pages as shared
	// consumption. A solo rider's window was opened and read by its own run.
	ord, shared := r.windowsPer[0]+1, r != rd.s.r
	if shared {
		r.openWindow(0, ord, rd.s.bounds[w.index])
		r.scope.SharedPages.Add(uint64(len(lw.pages)))
	}
	r.countWindow(0)
	r.scope.WindowsLevel1.Add(1)

	if r.k == 1 || rd.s.bounds[w.index].n == r.e.db.NumVertices() {
		// The whole window is the internal area — a single-level plan, or a
		// window spanning the entire vertex range, outside of which no red
		// vertex can lie: nothing is external, so no deeper level is visited.
		r.dispatchInternal(lw)
		r.workers.drain()
	} else {
		r.computeChildCandidates(0)
		// Overlap internal enumeration with the external traversal.
		r.dispatchInternal(lw)
		err := r.processLevel(1)
		// Internal tasks still reference lw; they must finish before the
		// sweep releases the window's pins.
		r.workers.drain()
		if err != nil {
			r.winData[0] = nil
			releasePins()
			return err
		}
		r.clearChildCandidates(0)
	}
	r.settleWindowCounts(lw)
	r.winData[0] = nil
	releasePins()
	if shared {
		r.closeWindow(0, ord)
	}
	// The gate, not just the error: a task that meets a dead context leaves
	// the rest of its chunk without failing the run, and a row hook that has
	// cancelled the run drops what arrives after. Neither may pass for a
	// completed window — a settled count, a checkpoint beyond rows never
	// delivered.
	if err := r.gate(); err != nil {
		return err
	}
	rd.processed++
	if rd.joinIndex == 0 {
		// The frontier is settled: deeper windows are exhausted, the worker
		// pool is drained, counts are merged, and the consumed prefix is
		// exactly what a solo run from the sweep's start would have
		// completed. This boundary is the run's recovery point.
		r.emitCheckpoint(int(rd.s.bounds[w.index].hi) + 1)
	}
	return nil
}

// Finish settles the rider into a Result — the engine's one Result
// constructor. Profile is read from the run's scope: a solo run's scope is
// the pool's attribution sink for the whole run, a cohort rider's is not
// (the sweep's scope pays the physical reads, the rider's consumption is
// SharedPages), so its PagesRead is zero. Every window the rider processed
// was settled at its release, so Metrics holds the run's own counts.
func (rd *Rider) Finish() (*Result, error) {
	r := rd.r
	if err := r.firstErr(); err != nil {
		return nil, err
	}
	rd.endLevel()
	internal, external := r.internalCount.Load(), r.externalCount.Load()
	if internal+external < internal {
		return nil, r.countOverflow("")
	}
	exec := time.Since(rd.startExec)
	r.emit(obs.Event{Event: "run_end", Count: internal + external, DurUS: exec.Microseconds(),
		Span: r.querySpan, Parent: rd.rootSpan})
	pr := r.scope.Profile()
	pr.PrepNS = r.p.PrepTime.Nanoseconds()
	pr.ExecNS = exec.Nanoseconds()
	return &Result{
		Count:           internal + external,
		Internal:        internal,
		External:        external,
		Plan:            r.p,
		PrepTime:        r.p.PrepTime,
		ExecTime:        exec,
		Resumed:         r.resumed,
		Level1Windows:   r.windowsPer[0],
		WindowsPerLevel: r.windowsPer,
		BufferFrames:    rd.frames,
		Metrics:         r.e.reg.Snapshot(),
		Profile:         &pr,
	}, nil
}

func (rd *Rider) endLevel() {
	if rd.levelEnd != nil {
		rd.levelEnd()
		rd.levelEnd = nil
	}
}

// Close releases the rider's worker pool (and closes its level-1 span if
// Finish never did), settles its scope — a rider that failed or was
// abandoned is settled here — and takes a cohort rider off its sweep's list.
// It returns the shared pages that settle booked: those of a window the
// rider processed but no Release settled yet, which the cohort's ledger adds
// beside what Release returns. Idempotent (a second Close returns 0); call
// after Finish or after abandoning a failed rider.
func (rd *Rider) Close() (shared uint64) {
	if rd.closed {
		return 0
	}
	rd.closed = true
	rd.endLevel()
	rd.r.workers.close()
	shared = rd.r.e.settle(rd.r.scope).SharedPages
	if i := slices.Index(rd.s.riders, rd); i >= 0 {
		rd.s.riders = slices.Delete(rd.s.riders, i, i+1) // off board: the next deal divides its frames
	}
	return shared
}
