package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dualsim/internal/buffer"
	"dualsim/internal/graph"
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
// the scheduler) is the same sweep with a plan-independent budget split
// and any number of riders.
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
// is too deep for the per-rider frame share. Callers fall back to a solo
// engine; nothing about the query is wrong.
var ErrRiderNotEligible = errors.New("core: query not eligible for the shared sweep; run it solo")

// WindowBounds is one level-1 window of the sweep's partition: vertex
// indices [Lo, Hi) into the ascending full range.
type WindowBounds struct {
	// Lo is the first vertex index of the window.
	Lo int
	// Hi is one past the last vertex index of the window.
	Hi int
}

// SweepOptions configures Engine.NewSweep.
type SweepOptions struct {
	// MaxRiders bounds concurrent riders; the pool's frames are split into
	// a level-1 sweep budget and MaxRiders equal deep-level shares, so the
	// worst-case pin count never exceeds the pool (default 1).
	MaxRiders int
	// Scope, when non-nil, receives the sweep's attribution: it is
	// installed as the pool's attribution sink for the sweep's lifetime,
	// so every physical page read of the cohort — the shared level-1 loads
	// and the riders' deep-level misses — is charged once, to the sweep.
	// Riders attribute their consumption of shared windows through their
	// own scopes' SharedPages instead.
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
	r       *run // the sweep's run; r.e is the engine
	bounds  []WindowBounds
	ordBase int // level-1 windows completed before bounds[0] (resume)

	riderFrames int // deep-level frame share per cohort rider
	maxRiders   int
	closed      bool
}

// NewSweep plans a cohort scan: it takes the engine's run guard and applies
// the cohort budget policy — riders share half the pool for their deep
// levels, the sweep's level-1 windows get the rest. The partition is then a
// pure function of the database layout and that budget, so it is identical
// across sweeps of the same engine and independent of any rider's plan —
// the property late-join correctness rests on.
func (e *Engine) NewSweep(opts SweepOptions) (*Sweep, error) {
	if opts.MaxRiders < 1 {
		opts.MaxRiders = 1
	}
	if !e.running.CompareAndSwap(false, true) {
		return nil, ErrEngineBusy
	}
	riderShare := (e.frames / 2) / opts.MaxRiders
	b1 := e.frames - opts.MaxRiders*riderShare
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
	s.riderFrames, s.maxRiders = riderShare, opts.MaxRiders
	return s, nil
}

// newSweep builds the sweep whose loads run on r, partitioning the vertex
// range from index start against r's level-1 window budget: the window
// iterator with an empty path-pin set is the partition. The caller holds
// the engine's run guard. r's scope becomes the pool's attribution sink
// until release.
func (e *Engine) newSweep(r *run, start int) (*Sweep, error) {
	s := &Sweep{r: r, ordBase: r.windowsPer[0]}
	it := windowIterator{r: r, merged: e.all, start: start}
	for it.next() {
		s.bounds = append(s.bounds, WindowBounds{Lo: it.curLo, Hi: it.curHi})
	}
	if err := r.firstErr(); err != nil {
		return nil, err
	}
	if r.scope != nil {
		e.pool.SetAttribution(r.scope)
	}
	return s, nil
}

// Windows returns the number of level-1 windows in the sweep's partition —
// the cycle length every rider consumes exactly once.
func (s *Sweep) Windows() int { return len(s.bounds) }

// RiderFrames returns the deep-level frame share each cohort rider plans
// against.
func (s *Sweep) RiderFrames() int { return s.riderFrames }

// Bounds returns the partition entry at index i.
func (s *Sweep) Bounds(i int) WindowBounds { return s.bounds[i] }

// SweepWindow is one loaded, pinned level-1 window, delivered to
// every rider before Release. Riders read its index concurrently;
// the sweep owns its buffer pins.
type SweepWindow struct {
	lw    *levelWindow
	index int
	ord   int // 1-based trace ordinal
	verts []graph.VertexID
}

// Index returns the window's partition index.
func (w *SweepWindow) Index() int { return w.index }

// Pages returns the number of pages the window pinned (valid until
// Release).
func (w *SweepWindow) Pages() int { return len(w.lw.pages) }

// Load pins partition window idx through the engine's one window loader
// (run.loadWindowWithRetry on the sweep's run): pages issued as coalesced
// ascending runs, split records merged, the run's overlay applied,
// transient faults retried with the engine's window-retry budget. The window traces as level 1 of the sweep's run: window_open and
// window_pinned (window_retry on retries) here, window_close at Release.
// The third parameter has no effect; ROADMAP 5(d) removes it.
func (s *Sweep) Load(ctx context.Context, idx, _ int) (*SweepWindow, error) {
	r := s.r
	r.ctx = ctx // a cohort sweep's loads observe each caller's context
	if err := r.gate(); err != nil {
		return nil, err
	}
	b := s.bounds[idx]
	w := &SweepWindow{index: idx, ord: s.ordBase + idx + 1, verts: r.e.all[b.Lo:b.Hi]}
	r.openWindow(0, w.ord, w.verts)
	lw, err := r.loadWindowWithRetry(0, w.ord, func() (*levelWindow, error) {
		return r.loadWindow(0, w.verts, w.ord)
	})
	if err != nil {
		return nil, err
	}
	w.lw = lw
	return w, nil
}

// Release unpins a delivered window. Every rider must have returned from
// ProcessWindow first — their adjacency reads are only valid while the
// sweep's pins hold the pages resident.
func (s *Sweep) Release(w *SweepWindow) {
	s.r.unloadWindow(w.lw)
	s.r.closeWindow(0, w.ord)
}

// release returns the pool's attribution slot.
func (s *Sweep) release() {
	if s.r.scope != nil {
		s.r.e.pool.SetAttribution(nil)
	}
}

// Close ends a cohort sweep: the pool's attribution slot released, the
// engine's run guard returned. The sweep is unusable afterwards.
func (s *Sweep) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.release()
	s.r.e.running.Store(false)
}

// Rider is one query riding a Sweep: a full run state (own worker pool,
// own deep-level budget, own scope and spans, own path pins) whose level-1
// windows arrive pinned from the sweep instead of being iterated by the run
// itself. A rider consumes every partition window exactly once, in cycle
// order from wherever it joined; commutativity of the per-window tallies
// makes the total independent of the starting point. A solo run is the
// single rider of its own sweep of one — there rd.r is also the sweep's
// run, so the windows it evaluates were loaded, traced and paid for under
// its own identity.
type Rider struct {
	s         *Sweep
	r         *run
	frames    int // pool share reported as Result.BufferFrames
	startExec time.Time
	rootSpan  uint64
	levelEnd  func() // closes the level-1 span; nil once closed

	// joinIndex is the partition index of the first window consumed (-1
	// until then). Riders that join at index 0 emit checkpoints — their
	// consumed prefix is exactly the solo iterator's; late joiners have no
	// solo-meaningful cursor and stay silent.
	joinIndex   int
	processed   int
	sharedPages uint64
	closed      bool
}

// NewRider plans a cohort rider for spec on the sweep, under the cohort
// budget policy: the rider's deep levels split its frame share with the
// usual strategy, sized for its share of the engine's threads. Its worker
// pool has all of them: riders of one sweep advance in lock step, so a
// rider whose window is done leaves its cores to the ones still matching.
// Resume and overlay specs (riders of one sweep share one snapshot and one
// start) and plans whose deep levels cannot fit the per-rider frame share
// return ErrRiderNotEligible (wrapped); the caller runs those solo.
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
	// alloc[0] stays 0: the rider never loads level 1 — the sweep owns
	// those pins. Deep levels must each hold one maximal vertex.
	alloc := make([]int, p.K)
	if p.K > 1 {
		deep, err := buffer.Allocate(s.riderFrames, p.K-1, max(1, e.opts.Threads/s.maxRiders), 0)
		if err == nil {
			err = ensureSpanBudget(deep, s.riderFrames, e.maxSpan)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRiderNotEligible, err)
		}
		copy(alloc[1:], deep)
	}
	return s.board(e.newRun(ctx, spec, alloc), s.riderFrames), nil
}

// board starts r as a rider of the sweep: worker pool up, the run counted
// and traced (run_start, the level-1 span).
func (s *Sweep) board(r *run, frames int) *Rider {
	r.workers = newWorkerPool(r.e.opts.Threads, r.em.workerSubmitted, r.em.workerCompleted)
	r.em.runs.Inc()
	rd := &Rider{s: s, r: r, frames: frames, startExec: time.Now(), joinIndex: -1}
	r.querySpan = r.span()
	if r.scope != nil {
		rd.rootSpan = r.scope.RootSpan()
	}
	r.emit(obs.Event{Event: "run_start", Levels: r.k, Frames: frames,
		Span: r.querySpan, Parent: rd.rootSpan})
	rd.levelEnd = r.openLevel(0)
	return rd
}

// Done reports that the rider has consumed every partition window.
func (rd *Rider) Done() bool { return rd.processed >= len(rd.s.bounds) }

// SharedPages returns the pages of shared windows attributed to this rider
// (logical consumption; the physical reads are charged to the sweep). Zero
// for a solo run, whose reads are its own.
func (rd *Rider) SharedPages() uint64 { return rd.sharedPages }

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
	// Rider-local view: the shared read-only index, own group membership,
	// own window-local tallies. It is never unloaded — the sweep owns the
	// buffer pins.
	src := w.lw
	lw := &levelWindow{
		verts:  make([][]graph.VertexID, len(r.p.Groups)),
		lo:     src.lo,
		hi:     src.hi,
		pages:  src.pages,
		loaded: src.loaded,
		side:   src.side,
	}
	for g := range r.p.Groups {
		lw.verts[g] = sliceRange(r.cand[g][0].slice(r.e.all), lw.lo, lw.hi)
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
		r.openWindow(0, ord, w.verts)
		rd.sharedPages += uint64(len(lw.pages))
		if r.scope != nil {
			r.scope.SharedPages.Add(uint64(len(lw.pages)))
		}
	}
	r.countWindow(0)
	r.em.windowsLevel1.Inc()
	if r.scope != nil {
		r.scope.WindowsLevel1.Add(1)
	}

	if r.k == 1 || len(w.verts) == len(r.e.all) {
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
	if err := r.firstErr(); err != nil {
		return err
	}
	rd.processed++
	if rd.joinIndex == 0 {
		// The frontier is settled: deeper windows are exhausted, the worker
		// pool is drained, counts are merged, and the consumed prefix is
		// exactly what a solo run from the sweep's start would have
		// completed. This boundary is the run's recovery point.
		r.emitCheckpoint(rd.s.bounds[w.index].Hi)
	}
	return nil
}

// Finish settles the rider into a Result — the engine's one Result
// constructor. IO stays zero: a rider cannot tell its reads from the pool's
// (RunSpecContext, which owns the pool for its run, fills it in; a cohort's
// physical reads are the sweep scope's, the rider's consumption is
// SharedPages).
func (rd *Rider) Finish() (*Result, error) {
	r := rd.r
	if err := r.firstErr(); err != nil {
		return nil, err
	}
	rd.endLevel()
	internal, external := r.internalCount.Load(), r.externalCount.Load()
	exec := time.Since(rd.startExec)
	r.emit(obs.Event{Event: "run_end", Count: internal + external, DurUS: exec.Microseconds(),
		Span: r.querySpan, Parent: rd.rootSpan})
	var profile *obs.CostProfile
	if r.scope != nil {
		pr := r.scope.Profile()
		pr.PrepNS = r.p.PrepTime.Nanoseconds()
		pr.ExecNS = exec.Nanoseconds()
		profile = &pr
	}
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
		IOWait:          r.ioWait,
		WindowRetries:   r.windowRetries,
		Metrics:         rd.r.e.reg.Snapshot(),
		Profile:         profile,
	}, nil
}

func (rd *Rider) endLevel() {
	if rd.levelEnd != nil {
		rd.levelEnd()
		rd.levelEnd = nil
	}
}

// Close releases the rider's worker pool (and closes its level-1 span if
// Finish never did). Idempotent; call after Finish or after abandoning a
// failed rider.
func (rd *Rider) Close() {
	if rd.closed {
		return
	}
	rd.closed = true
	rd.endLevel()
	rd.r.workers.close()
}
