// Package buffer implements the memory buffer manager used by the DUALSIM
// engine: a fixed pool of page frames with pin/unpin semantics, an
// asynchronous scheduler of coalesced page runs with completion callbacks
// (the paper's AsyncRead) counting into the installed query scope, and the
// buffer allocation strategies from Section 5 (paper strategy and the equal
// split used by OPT). Every read, synchronous or not, is served by serveRun.
package buffer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// PageReader supplies raw page images a run of consecutive pages at a
// time: *storage.DB implements it with one positional read, and so does the
// storage.RetryReader that wraps one, page by page under its retries. The
// pool issues one device request per contiguous non-resident stretch of a
// coalesced run; a page alone is a run of one.
type PageReader = storage.PageSource

// ErrNoFreeFrame is returned when every frame is pinned and a new page is
// requested. The engine sizes its windows to the pool, so seeing this error
// indicates a planning bug or a too-small buffer.
var ErrNoFreeFrame = errors.New("buffer: all frames pinned")

// DefaultMaxRun is the run-coalescing cap: the most pages one I/O request
// serves with a single simulated seek. Longer AsyncReadRunContext runs are
// split so a single run cannot monopolize an I/O worker while the others
// sit idle.
const DefaultMaxRun = 8

// Options configures a Pool.
type Options struct {
	// Frames is the pool capacity in pages (required, >= 1).
	Frames int
	// IOWorkers is the number of asynchronous read goroutines (default 4).
	IOWorkers int
	// PerPageLatency simulates device transfer time per physical page read.
	PerPageLatency time.Duration
	// SeekLatency is added when a physical read is not sequential with the
	// pool's previous physical read (an HDD-style seek penalty).
	SeekLatency time.Duration
}

// frame holds one parsed page. It keeps no page image: the parse decodes
// every record, so the page aliases nothing of the bytes it was parsed from.
// It owns its decoded page, mem: every load parses into that memory
// (storage.ParsePageInto), which grows only when a larger page arrives, so
// the pool's page memory is frames × decoded page bytes, allocated once per
// frame, and a physical read in steady state allocates none of it.
type frame struct {
	pid  storage.PageID
	pins int
	// page is &mem while the frame holds a loaded page; nil while a load
	// runs and after one failed.
	page  *storage.Page
	mem   storage.Page
	err   error
	ready chan struct{}
}

// ioRequest is one unit of I/O: n consecutive pages starting at pid. cb runs
// once per page, in ascending page order.
type ioRequest struct {
	ctx context.Context
	pid storage.PageID
	n   int
	cb  func(storage.PageID, *storage.Page, error)
	wg  *sync.WaitGroup
}

// Pool is a fixed-capacity page buffer. All methods are safe for concurrent
// use. Its state is fixed at creation: frames, the table of the pages they
// hold (at most one entry a frame) and the clock hand; nothing grows with
// the pins or reads it serves.
type Pool struct {
	reader PageReader
	opts   Options

	mu     sync.Mutex
	frames []frame
	table  map[storage.PageID]int
	hand   int // the frame the next acquireFrameLocked looks at first

	evictions atomic.Uint64 // frames recycled: no query owns an eviction
	lastRead  atomic.Int64  // previous physical pid, for seek simulation

	// attr is the scope every pin and read counts into: the active query's,
	// installed by the engine for the duration of a run (the engine runs one
	// query at a time and owns this pool exclusively, so a single slot
	// suffices), and between runs a scope nobody reads.
	attr atomic.Pointer[obs.Scope]

	ioq    chan ioRequest
	ioWG   sync.WaitGroup
	closed atomic.Bool
	// shutMu serializes request enqueue against Close: senders hold the read
	// half across the closed-check and the channel send, Close takes the
	// write half around closing ioq, so a send can never hit a closed
	// channel. Workers never take it, so a sender blocked on a full queue
	// still drains.
	shutMu sync.RWMutex

	// runBufs recycles the scratch buffers device requests read into: pages
	// are parsed straight out of it, and a parsed page keeps no reference to
	// it, so the scratch never outlives the request. It holds one per I/O
	// worker and one more, so the workers' reads reuse theirs for good; a
	// request that finds none free reads into a buffer of its own.
	runBufs chan []byte
}

// NewPool creates a pool over reader with opts.Frames frames.
func NewPool(reader PageReader, opts Options) (*Pool, error) {
	if opts.Frames < 1 {
		return nil, fmt.Errorf("buffer: need at least 1 frame, got %d", opts.Frames)
	}
	if opts.IOWorkers <= 0 {
		opts.IOWorkers = 4
	}
	p := &Pool{
		reader:  reader,
		opts:    opts,
		frames:  make([]frame, opts.Frames),
		table:   make(map[storage.PageID]int, opts.Frames),
		ioq:     make(chan ioRequest, 4*opts.IOWorkers),
		runBufs: make(chan []byte, opts.IOWorkers+1),
	}
	p.SetAttribution(nil)
	p.lastRead.Store(-2)
	for i := 0; i < opts.IOWorkers; i++ {
		p.ioWG.Add(1)
		go p.ioWorker()
	}
	return p, nil
}

// Close stops the I/O workers. Pending async requests complete first;
// requests racing with Close are rejected with ErrPoolClosed instead of
// panicking (see shutMu).
func (p *Pool) Close() {
	p.shutMu.Lock()
	if p.closed.CompareAndSwap(false, true) {
		close(p.ioq)
	}
	p.shutMu.Unlock()
	p.ioWG.Wait()
}

// SetAttribution installs the query scope every pin and read counts into,
// or with nil one that nobody reads. The engine calls it at run start and
// end; because one run owns the pool at a time and every physical read
// settles before the run returns, each count lands in the scope of the run
// that caused it.
func (p *Pool) SetAttribution(sc *obs.Scope) {
	if sc == nil {
		sc = obs.NewScope("")
	}
	p.attr.Store(sc)
}

// Evictions returns the frames the pool has recycled since it was created.
func (p *Pool) Evictions() uint64 { return p.evictions.Load() }

// PinnedCount returns the number of frames with at least one pin. For tests.
func (p *Pool) PinnedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.frames {
		if p.frames[i].pins > 0 {
			n++
		}
	}
	return n
}

// Pin fetches page pid, reading it if absent, and holds it in memory until
// a matching Unpin. The returned page is shared and must not be modified.
// It is valid only while pinned: the page, and every slice taken from it
// (Page.List), is its frame's memory, which the frame's next load
// overwrites once the last pin is gone. Copy what must outlive the pin.
//
// Pin is AsyncReadRunContext for a run of one, served on the caller's
// goroutine instead of an I/O worker's: same counters, same pin, same errors
// (ErrPoolClosed after Close included).
func (p *Pool) Pin(pid storage.PageID) (page *storage.Page, err error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	p.serveRun(context.Background(), pid, 1, nil, func(_ storage.PageID, pg *storage.Page, e error) {
		page, err = pg, e
	})
	return page, err
}

// Unpin releases one pin on pid. Unpinning a page that is not resident or
// not pinned panics: it is always a caller bug. The last pin off a page
// whose load failed drops it from the table, so the next request reads it
// again; an unpinned resident page stays until the clock hand takes its
// frame.
func (p *Pool) Unpin(pid storage.PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx, ok := p.table[pid]
	if !ok {
		panic(fmt.Sprintf("buffer: unpin of non-resident page %d", pid))
	}
	f := &p.frames[idx]
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned page %d", pid))
	}
	if f.pins--; f.pins == 0 && f.err != nil {
		delete(p.table, pid)
	}
}

// acquireFrameLocked returns a frame ready for a load: the first at or after
// the clock hand that nobody pins, with the hand moved past it. A frame that
// still holds a page gives it up (an eviction), so frames are reused in slot
// order, skipping the pinned ones — first loaded, first evicted. Caller
// holds mu.
func (p *Pool) acquireFrameLocked() (int, error) {
	for i := range p.frames {
		idx := (p.hand + i) % len(p.frames)
		f := &p.frames[idx]
		if f.pins > 0 {
			continue
		}
		p.hand = (idx + 1) % len(p.frames)
		if cur, ok := p.table[f.pid]; ok && cur == idx {
			delete(p.table, f.pid)
			p.evictions.Add(1)
		}
		return idx, nil
	}
	return 0, ErrNoFreeFrame
}

// simulateRunLatency sleeps the configured device delay of n consecutive
// physical page reads starting at first: n per-page transfer delays but at
// most one seek — the amortization sequential run coalescing exists to buy.
// It wakes early if the context is canceled mid-sleep.
func (p *Pool) simulateRunLatency(ctx context.Context, first storage.PageID, n int) {
	if p.opts.PerPageLatency == 0 && p.opts.SeekLatency == 0 {
		return
	}
	last := p.lastRead.Swap(int64(first) + int64(n) - 1)
	d := time.Duration(n) * p.opts.PerPageLatency
	if int64(first) != last+1 {
		d += p.opts.SeekLatency
	}
	if d <= 0 {
		return
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// ErrPoolClosed is what a read issued after Close fails with.
var ErrPoolClosed = errors.New("buffer: pool closed")

// enqueue submits req to the I/O workers, returning false when the pool is
// (or is concurrently being) closed. The shutMu read lock spans the
// closed-check and the send, so Close cannot close ioq in between.
func (p *Pool) enqueue(req ioRequest) bool {
	p.shutMu.RLock()
	defer p.shutMu.RUnlock()
	if p.closed.Load() {
		return false
	}
	p.ioq <- req
	return true
}

// AsyncReadRunContext schedules the n consecutive pages [first, first+n) as
// coalesced run requests — the paper's AsyncRead, a run at a time: cb runs
// in an I/O worker goroutine once per page, in ascending page order within
// each request, with the page pinned across the callback and until the
// caller Unpins it (pages delivered with an error hold no pin), so the
// callback processes one page while further reads proceed. A request whose
// context is already canceled when a worker dequeues it is not read: its
// callbacks fire with ctx.Err() and no page, draining queued I/O promptly
// on cancellation. Each contiguous non-resident stretch is one device
// request with a single simulated seek, so a sequential window load pays one
// positioning delay instead of n. Runs longer than DefaultMaxRun are split
// across several requests (possibly served by different workers). wg, if non-nil, must
// have been Add(n)'d; it is Done once per page. After Close every callback
// fires immediately with ErrPoolClosed. A delivered page is valid only while
// pinned, as with Pin: its frame's next load overwrites it after Unpin.
func (p *Pool) AsyncReadRunContext(ctx context.Context, first storage.PageID, n int, wg *sync.WaitGroup, cb func(storage.PageID, *storage.Page, error)) {
	for n > 0 {
		chunk := min(n, DefaultMaxRun)
		if !p.enqueue(ioRequest{ctx: ctx, pid: first, n: chunk, cb: cb, wg: wg}) {
			for i := 0; i < n; i++ {
				if cb != nil {
					cb(first+storage.PageID(i), nil, ErrPoolClosed)
				}
				if wg != nil {
					wg.Done()
				}
			}
			return
		}
		first += storage.PageID(chunk)
		n -= chunk
	}
}

func (p *Pool) ioWorker() {
	defer p.ioWG.Done()
	for req := range p.ioq {
		p.serveRun(req.ctx, req.pid, req.n, req.wg, req.cb)
	}
}

// runSlot is the per-page state of one coalesced run request.
type runSlot struct {
	idx  int  // frame index (valid when hit or load)
	hit  bool // resident: wait on the frame's ready channel
	load bool // this request owns the frame's physical load
	err  error
}

// serveRun is the pool's one read path. It serves the run request
// [first, first+n), with wg and cb as in AsyncReadRunContext, in three
// phases: classify every page under the pool lock (hit, frame acquired for
// load, or error), read each maximal contiguous stretch of loads with one
// seek, then deliver the callbacks in page order. A context canceled before
// any work starts no I/O. One canceled later cuts its simulated device delay
// short but still completes its transfers (each is bounded): other callers
// may already wait on those frames, and a frame must not fail them with a
// cancellation that is not theirs. The canceled caller is handed its
// context's error, and no pin, for the pages it loaded. A page that cannot
// be loaded is delivered with its error and no pin.
func (p *Pool) serveRun(ctx context.Context, first storage.PageID, n int, wg *sync.WaitGroup, cb func(storage.PageID, *storage.Page, error)) {
	var stack [DefaultMaxRun]runSlot // a request is at most DefaultMaxRun pages
	slots := stack[:n]
	ctxErr := ctx.Err()
	sc := p.attr.Load()
	p.mu.Lock()
	for i := range slots {
		pid := first + storage.PageID(i)
		if ctxErr != nil {
			slots[i].err = ctxErr
			continue
		}
		sc.LogicalReads.Add(1)
		if idx, ok := p.table[pid]; ok {
			p.frames[idx].pins++
			slots[i] = runSlot{idx: idx, hit: true}
			continue
		}
		idx, err := p.acquireFrameLocked()
		if err != nil {
			slots[i].err = err
			continue
		}
		f := &p.frames[idx]
		f.pid = pid
		f.pins = 1
		f.err = nil
		f.page = nil // f.mem is parsed into once the load runs
		f.ready = make(chan struct{})
		p.table[pid] = idx
		slots[i] = runSlot{idx: idx, load: true}
	}
	p.mu.Unlock()

	for i := 0; i < n; {
		if !slots[i].load {
			i++
			continue
		}
		j := i + 1
		for j < n && slots[j].load {
			j++
		}
		p.readStretch(ctx, first+storage.PageID(i), slots[i:j])
		i = j
	}

	for i := range slots {
		pid := first + storage.PageID(i)
		s := slots[i]
		var page *storage.Page
		err := s.err
		if err == nil {
			f := &p.frames[s.idx]
			if s.hit {
				select {
				case <-f.ready:
				default:
					waitStart := time.Now()
					<-f.ready
					sc.PinWaitNanos.Add(uint64(time.Since(waitStart)))
				}
				if f.err == nil {
					sc.BufferHits.Add(1)
				}
			}
			page, err = f.page, f.err
			if err == nil && s.load {
				err = ctx.Err()
			}
			if err != nil {
				p.Unpin(pid)
				page = nil
			}
		}
		if cb != nil {
			cb(pid, page, err)
		}
		if wg != nil {
			wg.Done()
		}
	}
}

// readStretch physically loads the consecutive pages claimed by slots (all
// marked load) into pooled scratch, charging one seek for the whole stretch.
// One device request reads as far as it gets: each page it filled is parsed
// straight out of the scratch into its frame's own memory (frame.parse),
// the page it stopped at fails with its error alone, and the pages after
// that are asked for again. A multi-page request counts as one coalesced
// run; a page counts as read once the device returned its bytes, whether or
// not they parse. Each frame's err/page is set and its ready channel closed.
func (p *Pool) readStretch(ctx context.Context, first storage.PageID, slots []runSlot) {
	sc := p.attr.Load()
	p.simulateRunLatency(ctx, first, len(slots))
	ps := p.reader.PageSize()
	buf := p.takeRunBuf(len(slots) * ps)
	defer p.putRunBuf(buf)
	for i := 0; i < len(slots); {
		n := len(slots) - i
		if n > 1 {
			sc.CoalescedRuns.Add(1)
			sc.CoalescedPages.Add(uint64(n))
		}
		filled, err := p.reader.ReadPagesInto(first+storage.PageID(i), buf[i*ps:])
		if err == nil {
			filled = n
		}
		filled = min(filled, n)
		for end := i + filled; i < end; i++ {
			f := &p.frames[slots[i].idx]
			f.err = f.parse(buf[i*ps : (i+1)*ps])
			sc.PagesRead.Add(1)
			close(f.ready)
		}
		if err != nil && i < len(slots) {
			f := &p.frames[slots[i].idx]
			f.err = err
			close(f.ready)
			i++
		}
	}
}

// parse parses the image read for the frame's page into the frame's own
// memory — an image of any other page is corrupt — and, on success,
// publishes it as the frame's page. The caller owns the frame's load.
func (f *frame) parse(img []byte) error {
	if err := storage.ParsePageInto(&f.mem, img, f.pid); err != nil {
		return err
	}
	f.page = &f.mem
	return nil
}

// takeRunBuf returns a scratch buffer of exactly size bytes, recycled via
// runBufs when a free one is large enough.
func (p *Pool) takeRunBuf(size int) []byte {
	select {
	case b := <-p.runBufs:
		if cap(b) >= size {
			return b[:size]
		}
	default:
	}
	return make([]byte, size, DefaultMaxRun*p.reader.PageSize())
}

// putRunBuf returns a scratch buffer to runBufs, or drops it when they are
// full.
func (p *Pool) putRunBuf(buf []byte) {
	select {
	case p.runBufs <- buf:
	default:
	}
}
