package buffer

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualsim/internal/faultdb"
	"dualsim/internal/gen"
	"dualsim/internal/obs"
	"dualsim/internal/oracletest"
	"dualsim/internal/storage"
)

// The pool oracle. Everything a pool answers follows from the page file and
// the requests made of it: a page delivered without error is the file's
// page, pinned; a page that cannot be delivered arrives with the error of
// the fault behind it and no pin; a request gets one callback a page, in
// page order; and what the pool counts is what it did. Each seed draws a
// database, a pool, a reader (the file, or a faultdb rule over it, with or
// without the retry layer) and clients that pin, unpin and read runs
// concurrently, cancel some of them and maybe race a Close, and holds every
// answer to a reference parse of the intact file. With one client, one I/O
// worker and no fault, each request's hits and loads are also those of an
// in-test model of the clock hand, which pins the eviction policy.

// Faults a draw's reader injects through faultdb, on drawn pages.
const (
	transient = "transient" // the pages fail their first reads transiently
	failPages = "failpages" // the pages always fail
	bitFlip   = "bitflip"   // the pages always read with one bit flipped
	misdirect = "misdirect" // the first page reads as another page's image
	failNth   = "failnth"   // the nth page read fails
)

// faults stripes the faults over the seeds: every run of seven draws each
// once and two fault-free readers; the next seven, each with the retry
// layer if these had none, and without it if they had.
var faults = []string{"", transient, failPages, "", bitFlip, misdirect, failNth}

// draw is one configuration of the oracle.
type draw struct {
	seed                  int64
	n, m, pageSize        int // the database: gen.ChungLu(n, m) on pageSize-byte pages
	compress, retry       bool
	frames                int // the pool's; 0 draws them from [1, pages+4] by pick
	pick                  float64
	workers, clients, ops int           // ops: drawn operations per client
	latency               time.Duration // a page's transfer; a seek costs twice it
	fault                 string
	faultPages            []storage.PageID // nil draws them
	saturate              bool             // one client, who may pin more pages than there are frames
	closeAt               int              // client 0's operation at which Close races the clients; -1 never
	script                []op             // client 0's first operations, before its drawn ones
}

// op is one operation of a client: 'r' a run of n pages from first, its
// context cancelled 'b'efore service, 'd'uring it, or not (0); 'p' a Pin;
// 'u' an Unpin of first, or of a drawn pin if first is not held; 'w' a
// waiter: a run of page first whose context is cancelled while a Pin of the
// page waits on its frame.
type op struct {
	kind, cancel byte
	first        storage.PageID
	n            int
}

// drawConfig draws seed's configuration.
func drawConfig(seed int64) draw {
	rng := rand.New(rand.NewSource(seed))
	d := draw{seed: seed, n: 40 + rng.Intn(360), pageSize: 128 << rng.Intn(4), compress: rng.Intn(2) == 0, pick: rng.Float64(),
		workers: 1 + rng.Intn(4), clients: 1 + rng.Intn(4), ops: 20 + rng.Intn(40), closeAt: -1,
		fault: faults[seed%int64(len(faults))], retry: seed/int64(len(faults))%2 == 1}
	d.m = d.n * (1 + rng.Intn(4))
	if rng.Intn(2) == 0 {
		d.latency = 20 * time.Microsecond
	}
	if d.fault == "" && rng.Intn(2) == 0 {
		d.clients, d.workers = 1, 1
	}
	d.saturate = d.clients == 1 && rng.Intn(3) == 0
	if rng.Intn(4) == 0 {
		d.closeAt = rng.Intn(d.ops)
	}
	return d
}

// countingReader is the pool's reader, counted: the pages it answered — the
// pages it filled and the one it failed at; the rest of the run is asked
// again —, the pages it returned bytes for and those that parse as the page
// asked for, and the multi-page requests and their pages.
type countingReader struct {
	PageReader
	mu                                sync.Mutex
	asked, read, good, runs, runPages uint64
	scratch                           storage.Page
}

func (c *countingReader) ReadPagesInto(first storage.PageID, buf []byte) (int, error) {
	filled, err := c.PageReader.ReadPagesInto(first, buf)
	ps, n := c.PageSize(), len(buf)/c.PageSize()
	c.mu.Lock()
	defer c.mu.Unlock()
	if n > 1 {
		c.runs, c.runPages = c.runs+1, c.runPages+uint64(n)
	}
	if c.asked += uint64(n); err != nil {
		c.asked -= uint64(n - filled - 1)
	}
	for i := 0; i < filled; i++ {
		c.read++
		if storage.ParsePageInto(&c.scratch, buf[i*ps:(i+1)*ps], first+storage.PageID(i)) == nil {
			c.good++
		}
	}
	return filled, err
}

// oracle is one draw's pool and what the file says it must answer.
type oracle struct {
	t                   *testing.T
	d                   draw
	cov                 *oracletest.Coverage
	ref                 []*storage.Page // the intact file's pages
	p                   *Pool
	sc                  *obs.Scope
	cr                  *countingReader
	faulty, bad         map[storage.PageID]bool // the fault's pages; the pages no read delivers
	closing, closed     atomic.Bool             // Close called; Close returned
	sure, maybe, nofree atomic.Uint64           // pages asked for live, maybe (cancelled in service), without a frame
	model               *clockModel
}

// request is one run's or Pin's deliveries.
type request struct {
	first  storage.PageID
	n      int
	cancel byte
	after  bool // asked for once Close had returned
	mu     sync.Mutex
	order  []storage.PageID
	pages  []*storage.Page
	errs   []error
}

func (o *oracle) request(first storage.PageID, n int, cancel byte) *request {
	return &request{first: first, n: n, cancel: cancel, after: o.closed.Load(), pages: make([]*storage.Page, n), errs: make([]error, n)}
}

func (r *request) deliver(pid storage.PageID, page *storage.Page, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.order = append(r.order, pid); int(pid-r.first) < r.n {
		r.pages[pid-r.first], r.errs[pid-r.first] = page, err
	}
}

// oracleSeeds is the tier-1 seed set: 1..oracleSeeds. With SOAK_SECONDS
// set, fresh seeds run until the time box closes.
const oracleSeeds = 28

// TestPoolOracle is the pool oracle (see the top of this file). Each seed
// draws a Chung-Lu graph built on 128- to 1024-byte pages, plain or
// compressed; 1 to pages+4 frames; 1 to 4 I/O workers, with simulated
// latency or without; a reader, striped over the seeds: the file or a
// faultdb rule over it, with or without the retry layer; and 1 to 4
// clients that pin, unpin and read runs of up to 2×DefaultMaxRun pages,
// cancel some before or during service, and hold no more pins than frames
// but in saturating draws; a quarter race a Close. A failing seed prints its
// draw; reproduce it with
//
//	go test ./internal/buffer -run 'TestPoolOracle/seed=N$'
func TestPoolOracle(t *testing.T) {
	cov := &oracletest.Coverage{}
	if !oracletest.Run(t, oracletest.Seeds(oracleSeeds), func(t *testing.T, s int64) { check(t, drawConfig(s), cov) }) {
		return
	}
	t.Logf("coverage over %d seeds: %v", oracleSeeds, cov)
	cov.Require(t, "page=128", "page=1024", "compress", "retry", "latency", "clients>1", "workers>1", "frames>pages", "frames<8",
		"fault:", "fault:"+transient, "fault:"+failPages, "fault:"+bitFlip, "fault:"+misdirect, "fault:"+failNth,
		"model", "model: hits and loads in one request", "hit", "eviction", "stretch>1", "run of 2 chunks", "pin wait",
		"saturate", "no free frame", "cancel:b", "cancel:d", "closed", "out of range", "corrupt: the page asked for",
		"delivered after a failed page", "device error: "+failPages, "device error: "+failNth, "device error: "+transient)
}

// buildDB builds and opens d's database.
func buildDB(t *testing.T, d draw) *storage.DB {
	path := filepath.Join(t.TempDir(), "o.db")
	_, err := storage.BuildFromGraph(path, gen.ChungLu(d.n, d.m, 2.5, d.seed), storage.BuildOptions{PageSize: d.pageSize, Compress: d.compress, TempDir: filepath.Dir(path)})
	db, oerr := storage.Open(path)
	if err = cmp.Or(err, oerr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// check runs draw d and holds the pool to the file.
func check(t *testing.T, d draw, cov *oracletest.Coverage) {
	db := buildDB(t, d)
	pages, rng, buf := db.NumPages(), rand.New(rand.NewSource(d.seed+1)), make([]byte, db.PageSize())
	o := &oracle{t: t, cov: cov, ref: make([]*storage.Page, pages), sc: obs.NewScope(""), faulty: map[storage.PageID]bool{}, bad: map[storage.PageID]bool{}}
	for pid := range o.ref {
		o.ref[pid] = &storage.Page{}
		if err := cmp.Or(db.ReadPageInto(storage.PageID(pid), buf), storage.ParsePageInto(o.ref[pid], buf, storage.PageID(pid))); err != nil {
			t.Fatal(err)
		}
	}
	if d.frames == 0 {
		d.frames = 1 + int(d.pick*float64(pages+4))
	}
	d.clients = min(d.clients, d.frames)
	var reader PageReader = db
	if d.fault != "" {
		fdb := faultdb.Wrap(db, faultdb.Options{Seed: d.seed})
		for i := rng.Intn(3); d.faultPages == nil || i > 0 && len(d.faultPages) < 3; i-- {
			d.faultPages = append(d.faultPages, storage.PageID(rng.Intn(pages)))
		}
		for _, pid := range d.faultPages {
			o.faulty[pid] = true
		}
		switch p := d.faultPages[0]; d.fault {
		case transient:
			fdb.TransientPages(1+rng.Intn(2), d.faultPages...)
		case failPages:
			fdb.FailPages(nil, d.faultPages...)
			o.bad = o.faulty
		case bitFlip:
			fdb.BitFlip(d.faultPages...)
			o.bad = o.faulty
		case misdirect:
			if o.faulty = map[storage.PageID]bool{p: true}; pages > 1 {
				fdb.Misdirect(p, (p+1+storage.PageID(rng.Intn(pages-1)))%storage.PageID(pages))
				o.bad = o.faulty
			}
		case failNth:
			fdb.FailNth(1+int64(rng.Intn(2*pages)), nil)
		}
		reader = fdb
	}
	if d.retry {
		reader = storage.NewRetryReader(reader, storage.RetryPolicy{Sleep: func(time.Duration) {}})
	}
	o.cr = &countingReader{PageReader: reader}
	p, err := NewPool(o.cr, Options{Frames: d.frames, IOWorkers: d.workers, PerPageLatency: d.latency, SeekLatency: 2 * d.latency})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	o.p = p
	p.SetAttribution(o.sc)
	if o.d = d; d.clients == 1 && d.workers == 1 && d.fault == "" {
		o.model = &clockModel{pid: make([]storage.PageID, d.frames), pins: make([]int, d.frames), table: map[storage.PageID]int{}}
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("draw: %+v", d)
		}
	})
	var group sync.WaitGroup
	for c := range d.clients {
		cl := &client{rng: rand.New(rand.NewSource(d.seed*31 + int64(c))), budget: d.frames / d.clients}
		if d.saturate {
			cl.budget = d.frames + 4
		}
		group.Add(1)
		go func() {
			defer group.Done()
			for i := 0; i < d.ops || c == 0 && i < len(d.script)+d.ops; i++ {
				if x := cl.next(o, pages); c == 0 && i < len(d.script) {
					o.do(cl, d.script[i])
				} else {
					o.do(cl, x)
				}
				if c == 0 && i == d.closeAt {
					group.Add(1)
					go func() {
						defer group.Done()
						o.closing.Store(true)
						o.p.Close()
						o.closed.Store(true)
					}()
				}
			}
			for len(cl.held) > 0 {
				o.unpin(cl, 0)
			}
		}()
	}
	group.Wait()
	o.quiescent()
	cov.Add(fmt.Sprintf("page=%d", d.pageSize), "fault:"+d.fault)
	for key, on := range map[string]bool{"compress": d.compress, "retry": d.retry, "latency": d.latency > 0, "clients>1": d.clients > 1,
		"workers>1": d.workers > 1, "frames>pages": d.frames > pages, "frames<8": d.frames < 8, "saturate": d.saturate, "model": o.model != nil} {
		if on {
			cov.Add(key)
		}
	}
}

// client is one goroutine's pins, budget and operations.
type client struct {
	rng    *rand.Rand
	held   []heldPin
	budget int // pins held plus pages asked for in flight
}

// heldPin is a page a client holds pinned.
type heldPin struct {
	pid  storage.PageID
	page *storage.Page
}

// next draws the client's next operation.
func (c *client) next(o *oracle, pages int) op {
	free, pid := c.budget-len(c.held), storage.PageID(c.rng.Intn(pages))
	switch r := c.rng.Intn(10); {
	case free <= 0 || r < 3 && len(c.held) > 0:
		return op{kind: 'u', first: ^storage.PageID(0)}
	case r < 5:
		return op{kind: 'p', first: pid}
	case r < 6 && free >= 2 && o.d.latency > 0:
		return op{kind: 'w', first: pid, n: 1}
	}
	return op{kind: 'r', first: pid, n: 1 + c.rng.Intn(min(2*DefaultMaxRun, free)), cancel: []byte{'b', 'd', 0, 0, 0, 0, 0, 0}[c.rng.Intn(8)]}
}

// do performs x for cl and checks what the pool answers. A request whose
// callbacks or wg.Done calls fall short never returns: the test times out.
func (o *oracle) do(cl *client, x op) {
	if x.kind == 'u' {
		i := slices.IndexFunc(cl.held, func(h heldPin) bool { return h.pid == x.first })
		if i < 0 && len(cl.held) > 0 {
			i = cl.rng.Intn(len(cl.held))
		}
		if i >= 0 {
			o.unpin(cl, i)
		}
		return
	}
	if x.kind == 'w' {
		x.cancel = 'd'
	}
	before, r, pin := o.counts(), o.request(x.first, max(x.n, 1), x.cancel), func(r *request) {
		page, err := o.p.Pin(r.first)
		r.deliver(r.first, page, err)
	}
	if x.kind == 'p' {
		pin(r)
		o.settle(cl, before, r)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if x.cancel == 'b' {
		cancel()
	} else if x.kind == 'r' && x.cancel == 'd' {
		time.AfterFunc(o.d.latency, cancel)
	}
	var wg sync.WaitGroup
	wg.Add(x.n)
	o.p.AsyncReadRunContext(ctx, x.first, x.n, &wg, r.deliver)
	if x.kind == 'r' {
		wg.Wait()
		o.settle(cl, before, r)
		return
	}
	// A waiter: the run loads the page unless it is resident, a Pin waits on
	// its frame, and then the run's context is cancelled. Logical reads tell
	// when each was classified — or another client's, which makes the waiter
	// a plain race.
	classified := func(n uint64) func() bool {
		return func() bool { return o.closing.Load() || o.sc.LogicalReads.Load() >= before.logical+n }
	}
	w, done := o.request(x.first, 1, 0), make(chan struct{})
	until(classified(1))
	go func() { pin(w); close(done) }()
	until(classified(2))
	cancel()
	<-done
	if wg.Wait(); errors.Is(r.errs[0], context.Canceled) && w.errs[0] == nil {
		o.cov.Add("waiter spared")
	}
	o.settle(cl, before, r, w)
}

// until polls cond for up to a second.
func until(cond func() bool) {
	for deadline := time.Now().Add(time.Second); !cond() && time.Now().Before(deadline); {
		runtime.Gosched()
	}
}

// unpin checks that cl's i-th pin still holds the file's page, and unpins it.
func (o *oracle) unpin(cl *client, i int) {
	h := cl.held[i]
	if !samePage(h.page, o.ref[h.pid]) {
		o.t.Errorf("page %d changed while pinned", h.pid)
	}
	cl.held = slices.Delete(cl.held, i, i+1)
	o.p.Unpin(h.pid)
	if o.model != nil {
		o.model.pins[o.model.table[h.pid]]--
	}
}

// settle checks the deliveries of requests served since before, keeps
// their pins and holds them to the model.
func (o *oracle) settle(cl *client, before counts, rs ...*request) {
	t := o.t
	for _, r := range rs {
		last := map[int]storage.PageID{} // by chunk: several workers serve a run's chunks at once
		for _, pid := range r.order {
			chunk := 0
			if o.d.workers > 1 {
				chunk = int(pid-r.first) / DefaultMaxRun
			}
			if prev, ok := last[chunk]; len(r.order) != r.n || int(pid-r.first) >= r.n || ok && pid <= prev {
				t.Errorf("request [%d,+%d): callbacks %v, want one a page in page order", r.first, r.n, r.order)
			}
			last[chunk] = pid
		}
		if r.n > DefaultMaxRun {
			o.cov.Add("run of 2 chunks")
		}
		faulted := false // a page before this one failed with a fault
		for i, err := range r.errs {
			pid, page := r.first+storage.PageID(i), r.pages[i]
			switch {
			case (err == nil) == (page == nil):
				t.Errorf("page %d: delivered %p with %v", pid, page, err)
			case err == nil:
				if int(pid) >= len(o.ref) || o.bad[pid] || r.cancel == 'b' || r.after || !samePage(page, o.ref[pid]) {
					t.Errorf("page %d: delivered, but it is not the file's page or could not be read", pid)
					continue
				}
				cl.held = append(cl.held, heldPin{pid, page})
				o.sure.Add(1)
				if faulted {
					o.cov.Add("delivered after a failed page")
				}
			case errors.Is(err, ErrPoolClosed):
				o.expect(pid, err, o.closing.Load(), "closed")
			case r.after || r.cancel == 'b' && !errors.Is(err, context.Canceled):
				t.Errorf("page %d: asked for after Close or cancelled before service, delivered %v", pid, err)
			case errors.Is(err, context.Canceled):
				o.expect(pid, err, r.cancel != 0, "cancel:"+string(r.cancel))
				if r.cancel == 'd' {
					o.maybe.Add(1)
				}
			case errors.Is(err, ErrNoFreeFrame):
				// Every frame was pinned: by the client's pins, this request's
				// other pages and a waiter's partner at most.
				o.expect(pid, err, o.d.saturate && len(cl.held)+r.n >= o.d.frames, "no free frame")
				o.sure.Add(1)
				o.nofree.Add(1)
			default:
				key := o.faultOf(pid, err)
				o.expect(pid, err, key != "", key)
				o.sure.Add(1)
				faulted = true
			}
		}
	}
	o.modelCheck(before, rs...)
}

// expect fails the draw unless ok, and counts key.
func (o *oracle) expect(pid storage.PageID, err error, ok bool, key string) {
	if !ok {
		o.t.Errorf("page %d: unexpected %v", pid, err)
	}
	o.cov.Add(key)
}

// faultOf names the fault that explains err on pid, or "" if none does. A
// stretch is read as far as the device gets and the rest asked for again, so
// a page fails only with its own fault.
func (o *oracle) faultOf(pid storage.PageID, err error) string {
	var ce *storage.CorruptPageError
	var ioe *storage.IOError
	switch f := o.d.fault; {
	case errors.As(err, &ce) && ce.Page == pid && o.bad[pid] && (f == bitFlip || f == misdirect):
		return "corrupt: the page asked for"
	case errors.Is(err, faultdb.ErrInjected) && (f == failNth || f == failPages && o.faulty[pid]):
		return "device error: " + f
	case errors.As(err, &ioe) && ioe.Transient && ioe.Page == pid && f == transient && !o.d.retry && o.faulty[pid]:
		return "device error: " + f
	case errors.As(err, &ioe) && !ioe.Transient && ioe.Page == pid && int(pid) >= len(o.ref):
		return "out of range"
	}
	return ""
}

// counts is what the model compares: the scope's logical reads and hits,
// and the pages asked of the reader.
type counts struct{ logical, hits, asked uint64 }

func (o *oracle) counts() counts {
	o.cr.mu.Lock()
	defer o.cr.mu.Unlock()
	return counts{o.sc.LogicalReads.Load(), o.sc.BufferHits.Load(), o.cr.asked}
}

// quiescent checks the pool once every pin is released: no pins, a table
// of at most Frames frames, each holding the file's page under its ID,
// evictions = good loads − resident frames, and the scope's counts.
func (o *oracle) quiescent() {
	t, p, pr, cr := o.t, o.p, o.sc.Profile(), o.cr
	if n := p.PinnedCount(); n != 0 {
		t.Errorf("%d frames pinned with every pin released", n)
	}
	p.mu.Lock()
	resident := uint64(len(p.table))
	for pid, idx := range p.table {
		if f := &p.frames[idx]; f.pid != pid || f.err != nil || f.page != &f.mem || !samePage(f.page, o.ref[pid]) {
			t.Errorf("table: page %d in frame %d, which holds page %d (err %v), not the file's", pid, idx, f.pid, f.err)
		}
	}
	p.mu.Unlock()
	if resident > uint64(o.d.frames) || p.Evictions() != cr.good-resident {
		t.Errorf("%d resident pages in %d frames, %d evictions, %d good loads", resident, o.d.frames, p.Evictions(), cr.good)
	}
	if pr.PagesRead != cr.read || pr.CoalescedRuns != cr.runs || pr.CoalescedPages != cr.runPages {
		t.Errorf("scope: %d pages read, %d runs of %d pages; the reader returned %d pages, read %d runs of %d", pr.PagesRead,
			pr.CoalescedRuns, pr.CoalescedPages, cr.read, cr.runs, cr.runPages)
	}
	// A page asked for under a live context is a hit, a load or without a
	// frame — or, under a fault or beside another client, a wait on a load
	// that failed.
	sure, maybe, used := o.sure.Load(), o.maybe.Load(), pr.BufferHits+cr.asked+o.nofree.Load()
	if pr.LogicalReads < max(sure, used) || pr.LogicalReads > sure+maybe || o.d.fault == "" && o.d.clients == 1 && pr.LogicalReads != used {
		t.Errorf("%d logical reads, %d hits, %d pages asked of the reader, %d without a frame: want %d asked for live, +%d cancelled in service",
			pr.LogicalReads, pr.BufferHits, cr.asked, o.nofree.Load(), sure, maybe)
	}
	for key, on := range map[string]bool{"pin wait": pr.PinWaitNS > 0, "eviction": p.Evictions() > 0, "stretch>1": cr.runs > 0, "hit": pr.BufferHits > 0} {
		if on {
			o.cov.Add(key)
		}
	}
}

// samePage reports whether got holds want's ID, vertices, lists, splits and
// chunk bits.
func samePage(got, want *storage.Page) bool {
	ok := got.ID == want.ID && got.First() == want.First() && got.Slots() == want.Slots()
	for i := 0; ok && i < want.Slots(); i++ {
		l, s, c := got.List(i)
		wl, ws, wc := want.List(i)
		gc, gn := got.Chunk(i)
		wcc, wcn := want.Chunk(i)
		ok = slices.Equal(l, wl) && s == ws && c == wc && gc == wcc && gn == wcn
	}
	return ok
}

// clockModel is the pool's frame table run by hand: a hit pins a resident
// page; a miss takes the first frame at or after the hand that nobody pins,
// evicting its page, and moves the hand past it.
type clockModel struct {
	pid   []storage.PageID
	pins  []int
	table map[storage.PageID]int
	hand  int
}

func (m *clockModel) classify(pid storage.PageID) byte {
	if idx, ok := m.table[pid]; ok {
		m.pins[idx]++
		return 'h'
	}
	for i := range m.pins {
		idx := (m.hand + i) % len(m.pins)
		if m.pins[idx] > 0 {
			continue
		}
		if m.hand = (idx + 1) % len(m.pins); m.table[m.pid[idx]] == idx {
			delete(m.table, m.pid[idx])
		}
		m.pid[idx], m.pins[idx], m.table[pid] = pid, 1, idx
		return 'l'
	}
	return 'n'
}

// modelCheck replays on the model the requests served since before: the
// pages the pool classified — a prefix of each request, as many in all as
// the logical reads since before — must be the hits and loads the model
// makes of them. The pool classifies a chunk of a run, or a waiter's run
// and Pin, before it delivers any of it; then a page delivered with an
// error releases its pin, and a failed load its frame.
func (o *oracle) modelCheck(before counts, rs ...*request) {
	if o.model == nil {
		return
	}
	after, served, m := o.counts(), make([]int, len(rs)), o.model
	left := int(after.logical - before.logical)
	for i := len(rs) - 1; i >= 0; i-- { // a waiter's run, rs[0], is the one that may not have been served
		if !errors.Is(rs[i].errs[0], ErrPoolClosed) {
			served[i] = min(rs[i].n, left)
			left -= served[i]
		}
	}
	var kinds []byte
	classify := func(r *request, lo, hi int) {
		for j := lo; j < hi; j++ {
			kinds = append(kinds, m.classify(r.first+storage.PageID(j)))
		}
	}
	deliver := func(r *request, lo, hi int) {
		for j := lo; j < hi; j++ {
			if err, idx := r.errs[j], m.table[r.first+storage.PageID(j)]; err != nil && !errors.Is(err, ErrNoFreeFrame) {
				if m.pins[idx]--; m.pins[idx] == 0 && !errors.Is(err, context.Canceled) {
					delete(m.table, r.first+storage.PageID(j))
				}
			}
		}
	}
	if len(rs) == 2 {
		classify(rs[0], 0, served[0])
		classify(rs[1], 0, served[1])
		deliver(rs[0], 0, served[0])
		deliver(rs[1], 0, served[1])
	}
	for lo := 0; len(rs) == 1 && lo < served[0]; lo += DefaultMaxRun {
		classify(rs[0], lo, min(lo+DefaultMaxRun, served[0]))
		deliver(rs[0], lo, min(lo+DefaultMaxRun, served[0]))
	}
	hits, loads := uint64(bytes.Count(kinds, []byte("h"))), uint64(bytes.Count(kinds, []byte("l")))
	if left != 0 || hits != after.hits-before.hits || loads != after.asked-before.asked {
		o.t.Errorf("request at page %d: %d classified, %d hits and %d loads; the clock model %d, %d and %d (%s)", rs[0].first,
			after.logical-before.logical, after.hits-before.hits, after.asked-before.asked, len(kinds), hits, loads, kinds)
	}
	if hits > 0 && loads > 0 {
		o.cov.Add("model: hits and loads in one request")
	}
}
