// Package faultdb is a deterministic, scriptable fault-injection layer for
// the storage read path. It wraps any Database (the interface the engine
// consumes) and applies a configured schedule of faults — fail the Nth
// read, fail a page set, flip payload bits, fail transiently then heal,
// spike latency — with a seeded RNG so every run of a schedule behaves
// identically. It replaces ad-hoc flaky test doubles and powers the
// robustness test suite and the exp failure-matrix experiment.
package faultdb

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dualsim/internal/storage"
)

// Database is the storage interface the engine consumes (mirrors
// core.Database without importing it, so core's own tests can use this
// package). *storage.DB implements it.
type Database interface {
	storage.PageSource
	NumVertices() int
	NumEdges() uint64
	PageFirsts() storage.PageFirsts
}

// ErrInjected is the default cause wrapped by injected faults.
var ErrInjected = errors.New("faultdb: injected fault")

// Options configures a wrapped database.
type Options struct {
	// Seed drives the probabilistic rules (FailRandom); 0 means 1.
	Seed int64
	// OnRead, when non-nil, observes every page read before any fault is
	// applied: n is the 1-based global read index. Useful to trigger
	// cancellation or schedule changes at an exact point.
	OnRead func(n int64, pid storage.PageID)
}

// Stats counts the wrapped database's activity.
type Stats struct {
	Reads    int64 // page reads observed
	Injected int64 // reads that returned an injected error
	Flipped  int64 // reads whose payload was bit-flipped
	Delayed  int64 // reads that served a latency spike
}

// DB wraps an inner Database with a fault schedule; every method but
// ReadPagesInto is the inner database's. All methods are safe for concurrent
// use; schedule mutations may race with reads only in the sense that a
// concurrent read sees either the old or the new schedule.
type DB struct {
	Database
	opts Options

	reads atomic.Int64

	mu       sync.Mutex
	rng      *randSource
	perPage  map[storage.PageID]int64
	rules    []rule
	served   map[storage.PageID]storage.PageID // Misdirect: the page whose image a read of the key gets
	injected atomic.Int64
	flipped  atomic.Int64
	delayed  atomic.Int64
}

// randSource is a tiny deterministic PRNG (xorshift64*), avoiding any
// global rand state so schedules replay identically.
type randSource struct{ s uint64 }

func (r *randSource) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// float64 returns a uniform value in [0,1).
func (r *randSource) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// rule is one entry of the fault schedule. Returning a non-nil error
// aborts the read; flip requests payload corruption after a successful
// inner read; delay is slept before the inner read.
type rule interface {
	apply(f *DB, n int64, pid storage.PageID, pageReads int64) (err error, flip bool, delay time.Duration)
}

// Wrap returns db with an empty fault schedule (all reads pass through).
func Wrap(inner Database, opts Options) *DB {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &DB{
		Database: inner,
		opts:     opts,
		rng:      &randSource{s: uint64(opts.Seed)},
		perPage:  make(map[storage.PageID]int64),
	}
}

// Stats returns a snapshot of the activity counters.
func (f *DB) Stats() Stats {
	return Stats{
		Reads:    f.reads.Load(),
		Injected: f.injected.Load(),
		Flipped:  f.flipped.Load(),
		Delayed:  f.delayed.Load(),
	}
}

// Reads returns the number of page reads observed so far.
func (f *DB) Reads() int64 { return f.reads.Load() }

// PageReads returns how many reads targeted pid.
func (f *DB) PageReads(pid storage.PageID) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.perPage[pid]
}

// Heal clears the entire fault schedule; subsequent reads pass through.
func (f *DB) Heal() {
	f.mu.Lock()
	f.rules, f.served = nil, nil
	f.mu.Unlock()
}

func (f *DB) addRule(r rule) {
	f.mu.Lock()
	f.rules = append(f.rules, r)
	f.mu.Unlock()
}

// ReadPagesInto serves a run of consecutive pages page by page, each a read
// of its own under the fault schedule (readPage), and stops at the first
// page that fails, reporting the pages read before it: a run of n pages is
// n reads, as the schedule counts them, up to the first that fails.
func (f *DB) ReadPagesInto(first storage.PageID, buf []byte) (int, error) {
	ps := f.PageSize()
	if len(buf) == 0 || len(buf)%ps != 0 {
		return f.Database.ReadPagesInto(first, buf) // the inner database's refusal
	}
	for i := 0; i*ps < len(buf); i++ {
		if err := f.readPage(first+storage.PageID(i), buf[i*ps:(i+1)*ps]); err != nil {
			return i, err
		}
	}
	return len(buf) / ps, nil
}

// readPage applies the fault schedule around the inner read of one page.
func (f *DB) readPage(pid storage.PageID, buf []byte) error {
	n := f.reads.Add(1)
	f.mu.Lock()
	f.perPage[pid]++
	pageReads := f.perPage[pid]
	rules := f.rules
	src, misdirected := f.served[pid]
	f.mu.Unlock()
	if !misdirected {
		src = pid
	}
	if f.opts.OnRead != nil {
		f.opts.OnRead(n, pid)
	}
	var flip bool
	var delay time.Duration
	for _, r := range rules {
		err, fl, d := r.apply(f, n, pid, pageReads)
		delay = max(delay, d)
		if err != nil {
			if delay > 0 {
				f.delayed.Add(1)
				time.Sleep(delay)
			}
			f.injected.Add(1)
			return err
		}
		flip = flip || fl
	}
	if delay > 0 {
		f.delayed.Add(1)
		time.Sleep(delay)
	}
	if _, err := f.Database.ReadPagesInto(src, buf); err != nil {
		return err
	}
	if flip {
		// Flip one payload bit in the middle of the image: any flip outside
		// the checksum field is guaranteed to trip the page CRC.
		buf[len(buf)/2] ^= 0x40
		f.flipped.Add(1)
	}
	return nil
}

// Misdirect serves page q's image on every read of page p — a misdirected
// read, which the image's checksum cannot see: the image is q's, intact.
// Heal clears it with the rest of the schedule.
func (f *DB) Misdirect(p, q storage.PageID) *DB {
	f.mu.Lock()
	if f.served == nil {
		f.served = map[storage.PageID]storage.PageID{}
	}
	f.served[p] = q
	f.mu.Unlock()
	return f
}

// --- schedule entries -------------------------------------------------------

type failNth struct {
	n   int64
	err error
}

func (r failNth) apply(_ *DB, n int64, _ storage.PageID, _ int64) (error, bool, time.Duration) {
	if n == r.n {
		return r.err, false, 0
	}
	return nil, false, 0
}

// FailNth fails exactly the nth global read (1-based) with err
// (ErrInjected when err is nil).
func (f *DB) FailNth(n int64, err error) *DB {
	if err == nil {
		err = ErrInjected
	}
	f.addRule(failNth{n: n, err: err})
	return f
}

type failAfter struct {
	n   int64
	err error
}

func (r failAfter) apply(_ *DB, n int64, _ storage.PageID, _ int64) (error, bool, time.Duration) {
	if n > r.n {
		return r.err, false, 0
	}
	return nil, false, 0
}

// FailAfter fails every read after the first n with err (ErrInjected when
// err is nil) — the classic device-died schedule.
func (f *DB) FailAfter(n int64, err error) *DB {
	if err == nil {
		err = ErrInjected
	}
	f.addRule(failAfter{n: n, err: err})
	return f
}

type failPages struct {
	pages map[storage.PageID]bool
	err   error
}

func (r failPages) apply(_ *DB, _ int64, pid storage.PageID, _ int64) (error, bool, time.Duration) {
	if r.pages[pid] {
		return r.err, false, 0
	}
	return nil, false, 0
}

// FailPages fails every read of the given pages with err (ErrInjected when
// err is nil).
func (f *DB) FailPages(err error, pages ...storage.PageID) *DB {
	if err == nil {
		err = ErrInjected
	}
	set := make(map[storage.PageID]bool, len(pages))
	for _, p := range pages {
		set[p] = true
	}
	f.addRule(failPages{pages: set, err: err})
	return f
}

type transientPages struct {
	pages map[storage.PageID]bool
	times int64
}

func (r transientPages) apply(_ *DB, _ int64, pid storage.PageID, pageReads int64) (error, bool, time.Duration) {
	if r.pages[pid] && pageReads <= r.times {
		return storage.NewTransientError(pid, ErrInjected), false, 0
	}
	return nil, false, 0
}

// TransientPages makes the first `times` reads of each given page fail
// with a transient *storage.IOError, then heal — the fail-then-heal
// schedule a retrying reader must absorb.
func (f *DB) TransientPages(times int, pages ...storage.PageID) *DB {
	set := make(map[storage.PageID]bool, len(pages))
	for _, p := range pages {
		set[p] = true
	}
	f.addRule(transientPages{pages: set, times: int64(times)})
	return f
}

type failRandom struct {
	p   float64
	err error
}

func (r failRandom) apply(f *DB, _ int64, pid storage.PageID, _ int64) (error, bool, time.Duration) {
	f.mu.Lock()
	x := f.rng.float64()
	f.mu.Unlock()
	if x < r.p {
		return storage.NewTransientError(pid, r.err), false, 0
	}
	return nil, false, 0
}

// FailRandom fails each read with probability p (transient, seeded —
// deterministic for a given schedule and read sequence).
func (f *DB) FailRandom(p float64, err error) *DB {
	if err == nil {
		err = ErrInjected
	}
	f.addRule(failRandom{p: p, err: err})
	return f
}

type bitFlip struct {
	pages map[storage.PageID]bool
	times int64 // 0 = every read
}

func (r bitFlip) apply(_ *DB, _ int64, pid storage.PageID, pageReads int64) (error, bool, time.Duration) {
	if r.pages[pid] && (r.times == 0 || pageReads <= r.times) {
		return nil, true, 0
	}
	return nil, false, 0
}

// BitFlip corrupts one payload bit of the given pages on every read —
// persistent media corruption that no re-read can clear.
func (f *DB) BitFlip(pages ...storage.PageID) *DB {
	set := make(map[storage.PageID]bool, len(pages))
	for _, p := range pages {
		set[p] = true
	}
	f.addRule(bitFlip{pages: set})
	return f
}

// BitFlipOnce corrupts only the first read of each given page — a torn
// read that a single re-read heals.
func (f *DB) BitFlipOnce(pages ...storage.PageID) *DB {
	set := make(map[storage.PageID]bool, len(pages))
	for _, p := range pages {
		set[p] = true
	}
	f.addRule(bitFlip{pages: set, times: 1})
	return f
}

type latency struct {
	d     time.Duration
	every int64
}

func (r latency) apply(_ *DB, n int64, _ storage.PageID, _ int64) (error, bool, time.Duration) {
	if r.every <= 1 || n%r.every == 0 {
		return nil, false, r.d
	}
	return nil, false, 0
}

// Latency sleeps d on every everyNth read (every read when everyNth <= 1)
// — a device latency spike.
func (f *DB) Latency(d time.Duration, everyNth int64) *DB {
	f.addRule(latency{d: d, every: everyNth})
	return f
}
