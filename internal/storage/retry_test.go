package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dualsim/internal/graph"
)

// scriptedSource is a PageSource whose reads follow a per-call script.
type scriptedSource struct {
	pageSize int
	numPages int
	image    []byte // served on successful reads

	mu     sync.Mutex
	reads  int
	script []func(buf []byte) error // script[i] governs read i; past the end: success
}

func newScriptedSource(t *testing.T) *scriptedSource {
	t.Helper()
	w := NewPageWriter(MinPageSize, 7)
	if !w.Add(graph.VertexID(3), []graph.VertexID{5}, false, false) {
		t.Fatal("record does not fit")
	}
	img := make([]byte, MinPageSize)
	copy(img, w.Bytes())
	return &scriptedSource{pageSize: MinPageSize, numPages: 8, image: img}
}

func (s *scriptedSource) ReadPageInto(pid PageID, buf []byte) error {
	s.mu.Lock()
	i := s.reads
	s.reads++
	var step func([]byte) error
	if i < len(s.script) {
		step = s.script[i]
	}
	s.mu.Unlock()
	if step != nil {
		return step(buf)
	}
	copy(buf, s.image)
	return nil
}

func (s *scriptedSource) PageSize() int { return s.pageSize }
func (s *scriptedSource) NumPages() int { return s.numPages }

func (s *scriptedSource) totalReads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads
}

// ok serves the valid image; fail returns err; torn serves a bit-flipped image.
func (s *scriptedSource) ok(buf []byte) error {
	copy(buf, s.image)
	return nil
}

func (s *scriptedSource) torn(buf []byte) error {
	copy(buf, s.image)
	buf[len(buf)-1] ^= 0x01
	return nil
}

func failWith(err error) func([]byte) error {
	return func([]byte) error { return err }
}

func noSleep(time.Duration) {}

func TestRetryReaderPassThrough(t *testing.T) {
	src := newScriptedSource(t)
	r := NewRetryReader(src, RetryPolicy{Sleep: noSleep})
	buf := make([]byte, src.PageSize())
	if err := r.ReadPageInto(7, buf); err != nil {
		t.Fatal(err)
	}
	p := &Page{}
	if err := ParsePageInto(p, buf, 7); err != nil {
		t.Fatal(err)
	}
	if p.ID != 7 || p.Slots() != 1 {
		t.Fatalf("parsed page %d with %d slots", p.ID, p.Slots())
	}
	st := r.Stats()
	if st.Reads != 1 || st.Retries != 0 || st.Recovered != 0 || st.Exhausted != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestRetryReaderRecoversTransient(t *testing.T) {
	src := newScriptedSource(t)
	transient := NewTransientError(7, errors.New("hiccup"))
	src.script = []func([]byte) error{failWith(transient), failWith(transient)}
	r := NewRetryReader(src, RetryPolicy{MaxRetries: 3, Sleep: noSleep})
	buf := make([]byte, src.PageSize())
	if err := r.ReadPageInto(7, buf); err != nil {
		t.Fatalf("retry should have recovered: %v", err)
	}
	if got := src.totalReads(); got != 3 {
		t.Fatalf("source read %d times, want 3 (2 failures + 1 success)", got)
	}
	st := r.Stats()
	if st.Retries != 2 || st.Recovered != 1 || st.Exhausted != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestRetryReaderExhaustsBudget(t *testing.T) {
	src := newScriptedSource(t)
	cause := errors.New("still down")
	transient := NewTransientError(7, cause)
	for i := 0; i < 10; i++ {
		src.script = append(src.script, failWith(transient))
	}
	const maxRetries = 2
	r := NewRetryReader(src, RetryPolicy{MaxRetries: maxRetries, Sleep: noSleep})
	buf := make([]byte, src.PageSize())
	err := r.ReadPageInto(7, buf)
	if !errors.Is(err, cause) {
		t.Fatalf("exhaustion must wrap the cause, got %v", err)
	}
	if !IsTransient(err) {
		t.Fatal("exhausted error lost its transient classification")
	}
	if got := src.totalReads(); got != maxRetries+1 {
		t.Fatalf("source read %d times, want exactly %d", got, maxRetries+1)
	}
	if st := r.Stats(); st.Exhausted != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestRetryReaderFailsFastOnPermanent(t *testing.T) {
	src := newScriptedSource(t)
	perm := &IOError{Page: 7, Op: "read", Err: errors.New("bad sector")}
	src.script = []func([]byte) error{failWith(perm)}
	r := NewRetryReader(src, RetryPolicy{MaxRetries: 5, Sleep: noSleep})
	buf := make([]byte, src.PageSize())
	err := r.ReadPageInto(7, buf)
	var ioe *IOError
	if !errors.As(err, &ioe) || ioe.Transient {
		t.Fatalf("want the permanent IOError back, got %v", err)
	}
	if got := src.totalReads(); got != 1 {
		t.Fatalf("permanent error retried: %d reads", got)
	}
}

func TestRetryReaderHealsTornRead(t *testing.T) {
	src := newScriptedSource(t)
	src.script = []func([]byte) error{src.torn}
	r := NewRetryReader(src, RetryPolicy{CRCRetries: 1, Sleep: noSleep})
	buf := make([]byte, src.PageSize())
	if err := r.ReadPageInto(7, buf); err != nil {
		t.Fatalf("torn read should heal on re-read: %v", err)
	}
	if got := src.totalReads(); got != 2 {
		t.Fatalf("source read %d times, want 2", got)
	}
	st := r.Stats()
	if st.CRCRereads != 1 || st.Recovered != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestRetryReaderDeclaresCorruptionAfterBudget(t *testing.T) {
	src := newScriptedSource(t)
	for i := 0; i < 10; i++ {
		src.script = append(src.script, src.torn)
	}
	const crcRetries = 2
	r := NewRetryReader(src, RetryPolicy{CRCRetries: crcRetries, Sleep: noSleep})
	buf := make([]byte, src.PageSize())
	err := r.ReadPageInto(7, buf)
	ce, ok := IsCorrupt(err)
	if !ok {
		t.Fatalf("want *CorruptPageError, got %v", err)
	}
	if ce.Page != 7 {
		t.Fatalf("corruption names page %d, want 7", ce.Page)
	}
	if got := src.totalReads(); got != crcRetries+1 {
		t.Fatalf("source read %d times, want exactly %d", got, crcRetries+1)
	}
	if st := r.Stats(); st.Exhausted != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestRetryReaderMixedTransientThenTorn(t *testing.T) {
	src := newScriptedSource(t)
	transient := NewTransientError(7, errors.New("hiccup"))
	src.script = []func([]byte) error{failWith(transient), src.torn}
	r := NewRetryReader(src, RetryPolicy{MaxRetries: 2, CRCRetries: 1, Sleep: noSleep})
	buf := make([]byte, src.PageSize())
	if err := r.ReadPageInto(7, buf); err != nil {
		t.Fatalf("should survive one transient + one torn read: %v", err)
	}
	if got := src.totalReads(); got != 3 {
		t.Fatalf("source read %d times, want 3", got)
	}
}

// TestRetryReaderOnEventHook checks the observability hook sees every
// recovery event in order, with the page and attempt identified.
func TestRetryReaderOnEventHook(t *testing.T) {
	type ev struct {
		kind    string
		pid     PageID
		attempt int
	}
	var events []ev
	src := newScriptedSource(t)
	transient := NewTransientError(7, errors.New("hiccup"))
	src.script = []func([]byte) error{failWith(transient), src.torn}
	r := NewRetryReader(src, RetryPolicy{
		MaxRetries: 2, CRCRetries: 1, Sleep: noSleep,
		OnEvent: func(kind string, pid PageID, attempt int) {
			events = append(events, ev{kind, pid, attempt})
		},
	})
	buf := make([]byte, src.PageSize())
	if err := r.ReadPageInto(7, buf); err != nil {
		t.Fatal(err)
	}
	want := []ev{{"retry", 7, 1}, {"crc_reread", 7, 1}, {"recovered", 7, 3}}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, events[i], want[i])
		}
	}

	// Exhaustion is reported too.
	events = nil
	src2 := newScriptedSource(t)
	for i := 0; i < 5; i++ {
		src2.script = append(src2.script, failWith(transient))
	}
	r2 := NewRetryReader(src2, RetryPolicy{
		MaxRetries: 1, Sleep: noSleep,
		OnEvent: func(kind string, pid PageID, attempt int) {
			events = append(events, ev{kind, pid, attempt})
		},
	})
	if err := r2.ReadPageInto(7, buf); err == nil {
		t.Fatal("want exhaustion error")
	}
	if len(events) == 0 || events[len(events)-1].kind != "exhausted" {
		t.Fatalf("missing exhausted event: %v", events)
	}
}

func TestRetryBackoffBoundedAndDeterministic(t *testing.T) {
	policy := RetryPolicy{
		MaxRetries: 8,
		BaseDelay:  time.Millisecond,
		MaxDelay:   16 * time.Millisecond,
		Jitter:     0.5,
		Seed:       42,
	}
	delays := func() []time.Duration {
		var ds []time.Duration
		p := policy
		p.Sleep = func(d time.Duration) { ds = append(ds, d) }
		src := newScriptedSource(t)
		transient := NewTransientError(7, errors.New("hiccup"))
		for i := 0; i < 8; i++ {
			src.script = append(src.script, failWith(transient))
		}
		r := NewRetryReader(src, p)
		buf := make([]byte, src.PageSize())
		if err := r.ReadPageInto(7, buf); err != nil {
			t.Fatal(err)
		}
		return ds
	}
	first := delays()
	if len(first) != 8 {
		t.Fatalf("%d delays, want 8", len(first))
	}
	for i, d := range first {
		// Attempt i's nominal delay is min(base<<i, max); jitter keeps it
		// within [nominal/2, nominal].
		nominal := policy.BaseDelay << uint(i)
		if nominal > policy.MaxDelay {
			nominal = policy.MaxDelay
		}
		if d < nominal/2 || d > nominal {
			t.Fatalf("delay %d = %v outside [%v, %v]", i, d, nominal/2, nominal)
		}
	}
	second := delays()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed produced different delays: %v vs %v", first, second)
		}
	}
}

func TestVerifyPageChecksumDetectsFlips(t *testing.T) {
	src := newScriptedSource(t)
	buf := make([]byte, src.PageSize())
	src.ok(buf)
	if err := VerifyPageChecksum(buf); err != nil {
		t.Fatalf("valid page rejected: %v", err)
	}
	for _, off := range []int{0, 5, checksumOffset, len(buf) - 1} {
		img := make([]byte, len(buf))
		copy(img, buf)
		img[off] ^= 0x10
		err := VerifyPageChecksum(img)
		if _, ok := IsCorrupt(err); !ok {
			t.Fatalf("flip at offset %d undetected: %v", off, err)
		}
	}
}

func TestIsTransientClassifier(t *testing.T) {
	transient := NewTransientError(3, errors.New("x"))
	perm := &IOError{Page: 3, Op: "read", Err: errors.New("x")}
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{transient, true},
		{perm, false},
		{fmt.Errorf("wrapped: %w", transient), true},
		{fmt.Errorf("wrapped: %w", perm), false},
		{&CorruptPageError{Page: 1, Reason: "checksum mismatch"}, false},
	}
	for i, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Fatalf("case %d (%v): IsTransient = %v, want %v", i, c.err, got, c.want)
		}
	}
}

func TestReadPageIntoTypedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomTestGraph(rng, 60, 200)
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 256})
	buf := make([]byte, db.PageSize())
	err := db.ReadPageInto(PageID(db.NumPages()+3), buf)
	var ioe *IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("out-of-range read: want *IOError, got %v", err)
	}
	if ioe.Transient {
		t.Fatal("out-of-range read misclassified as transient")
	}
	if ioe.Page != PageID(db.NumPages()+3) {
		t.Fatalf("error names page %d", ioe.Page)
	}
}

func TestStatsFillFactorBounded(t *testing.T) {
	// Regression: the fill-factor computation once decoded freeStart with
	// the wrong operator precedence, yielding factors far above 1. A packed
	// database must report a fill factor in (0, 1].
	rng := rand.New(rand.NewSource(13))
	g := randomTestGraph(rng, 300, 4000)
	for _, pageSize := range []int{128, 256, 4096} {
		db, _ := buildTemp(t, g, BuildOptions{PageSize: pageSize})
		st, err := db.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.FillFactor <= 0 || st.FillFactor > 1 {
			t.Fatalf("pageSize=%d: fill factor %.4f outside (0, 1]", pageSize, st.FillFactor)
		}
		if pageSize == 128 && st.FillFactor < 0.5 {
			t.Fatalf("packed small pages report implausibly low fill %.4f", st.FillFactor)
		}
	}
}

func TestVerifyPagesReportsAllFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomTestGraph(rng, 200, 1500)
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 128})
	if db.NumPages() < 4 {
		t.Skip("too few pages")
	}
	rep := db.VerifyPages()
	if rep.PagesScanned != db.NumPages() {
		t.Fatalf("scanned %d pages, want %d", rep.PagesScanned, db.NumPages())
	}
	if rep.Err() != nil {
		t.Fatalf("clean database reported %v", rep.Err())
	}

	// Corrupt two pages on disk and re-verify: both must be reported.
	path := db.Path()
	pageSize := db.PageSize()
	db.Close()
	flipByteInPage(t, path, pageSize, 1)
	flipByteInPage(t, path, pageSize, 3)
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rep = db2.VerifyPages()
	if len(rep.Corrupt) != 2 {
		t.Fatalf("%d corrupt pages reported, want 2: %v", len(rep.Corrupt), rep.Corrupt)
	}
	got := map[PageID]bool{}
	for _, ce := range rep.Corrupt {
		got[ce.Page] = true
	}
	if !got[1] || !got[3] {
		t.Fatalf("wrong pages reported: %v", rep.Corrupt)
	}
	if _, ok := IsCorrupt(rep.Err()); !ok {
		t.Fatalf("report error is not corruption: %v", rep.Err())
	}
}

// flipByteInPage flips one payload byte of page pid directly in the file.
// Data pages start one page past the superblock.
func flipByteInPage(t *testing.T, path string, pageSize int, pid PageID) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(pageSize)*(int64(pid)+1) + int64(pageSize)/2
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x20
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// rewritePage applies mut to data page pid of the file at path and writes
// the page checksum over the result, so only the structural checks stand
// between the damage and a reader. It returns the rewritten image.
func rewritePage(t *testing.T, path string, pageSize int, pid PageID, mut func(img []byte)) []byte {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	img := make([]byte, pageSize)
	off := int64(pageSize) * (int64(pid) + 1)
	if _, err := f.ReadAt(img, off); err != nil {
		t.Fatal(err)
	}
	mut(img)
	rewriteChecksum(img)
	if _, err := f.WriteAt(img, off); err != nil {
		t.Fatal(err)
	}
	return img
}

// TestVerifyReportsNonDenseRun: a page whose records are not a dense
// vertex-ID run — here the second record renamed to the vertex after it,
// checksum intact — is rejected by every parse, and reported with that
// reason by VerifyPages, as the only failure (the cross-page checks do not
// echo it), and by VerifyIntegrity.
func TestVerifyReportsNonDenseRun(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	db, _ := buildTemp(t, randomTestGraph(rng, 200, 600), BuildOptions{PageSize: 256})
	const pid = 2
	p, err := readPage(db, pid)
	if err != nil || p.Slots() < 3 {
		t.Fatalf("page %d: %d slots, err %v; want at least 3", pid, p.Slots(), err)
	}
	img := rewritePage(t, db.Path(), db.PageSize(), pid, func(img []byte) {
		off, _ := slotRecord(img, 1)
		binary.LittleEndian.PutUint32(img[off:], binary.LittleEndian.Uint32(img[off:])+1)
	})
	if !rejectedByEveryParse(t, img) {
		t.Fatal("a page that is not a dense vertex-ID run parses")
	}
	rep := db.VerifyPages()
	if len(rep.Corrupt) != 1 || len(rep.IOErrors) != 0 || rep.Corrupt[0].Page != pid ||
		!strings.Contains(rep.Corrupt[0].Reason, "not a dense vertex-ID run") || rep.PagesScanned != db.NumPages() {
		t.Fatalf("VerifyPages: scanned %d of %d pages, corrupt %v, unreadable %v; want page %d alone, as not a dense run",
			rep.PagesScanned, db.NumPages(), rep.Corrupt, rep.IOErrors, pid)
	}
	if ce, ok := IsCorrupt(db.VerifyIntegrity()); !ok || ce.Page != pid {
		t.Fatalf("VerifyIntegrity: %v, want page %d corrupt", db.VerifyIntegrity(), pid)
	}
}

// TestVerifyStructuralChecks: pages that parse but disagree with the
// page-first array or with the superblock are reported by the same scan,
// each as a CorruptPageError with its reason — vertices other than the
// array says the page begins with, a page claiming another page's ID, a list
// shorter than the superblock's edge count allows. A compaction over the
// file fails on each as well.
func TestVerifyStructuralChecks(t *testing.T) {
	for _, tc := range []struct {
		reason string
		mut    func(db *DB, img []byte)
	}{
		{"the page array says", func(db *DB, img []byte) {
			for i := 0; i < int(binary.LittleEndian.Uint16(img[4:])); i++ {
				off, _ := slotRecord(img, i)
				binary.LittleEndian.PutUint32(img[off:], uint32(db.NumVertices()+i))
			}
		}},
		{"page claims ID", func(_ *DB, img []byte) { binary.LittleEndian.PutUint32(img[0:], 0) }},
		{"the lists hold", func(_ *DB, img []byte) {
			// The first non-empty (raw) list loses its last entry.
			for i := 0; ; i++ {
				off, length := slotRecord(img, i)
				if count := binary.LittleEndian.Uint16(img[off+6:]); count > 0 {
					binary.LittleEndian.PutUint16(img[off+6:], count-1)
					binary.LittleEndian.PutUint16(img[len(img)-(i+1)*slotSize+2:], uint16(length-4))
					return
				}
			}
		}},
	} {
		rng := rand.New(rand.NewSource(41))
		g := randomTestGraph(rng, 120, 300)
		db, _ := buildTemp(t, g, BuildOptions{PageSize: 256})
		rewritePage(t, db.Path(), db.PageSize(), 1, func(img []byte) { tc.mut(db, img) })
		rep := db.VerifyPages()
		if len(rep.Corrupt) != 1 || !strings.Contains(rep.Corrupt[0].Reason, tc.reason) {
			t.Fatalf("%s: VerifyPages reports %v", tc.reason, rep.Corrupt)
		}
		if _, ok := IsCorrupt(db.VerifyIntegrity()); !ok {
			t.Fatalf("%s: VerifyIntegrity: %v", tc.reason, db.VerifyIntegrity())
		}
		keep := func(_ graph.VertexID, base []graph.VertexID) []graph.VertexID { return base }
		if _, err := Compact(filepath.Join(t.TempDir(), "out.db"), db, keep, 0, BuildOptions{}); err == nil {
			t.Fatalf("%s: a compaction over the file succeeded", tc.reason)
		}
	}
}

// TestWholeFileScanAllocs: a whole-file scan allocates per file, not per
// page — VerifyPages and Stats make as many allocations on a file of about
// twice the pages.
func TestWholeFileScanAllocs(t *testing.T) {
	allocs := func(n int) (pages int, verify, stats float64) {
		db, _ := buildTemp(t, randomTestGraph(rand.New(rand.NewSource(42)), n, 4*n), BuildOptions{PageSize: 256})
		verify = testing.AllocsPerRun(3, func() {
			if err := db.VerifyPages().Err(); err != nil {
				t.Fatal(err)
			}
		})
		stats = testing.AllocsPerRun(3, func() {
			if _, err := db.Stats(); err != nil {
				t.Fatal(err)
			}
		})
		return db.NumPages(), verify, stats
	}
	p1, v1, s1 := allocs(300)
	p2, v2, s2 := allocs(600)
	if p2 < 2*p1-2 {
		t.Fatalf("fixtures of %d and %d pages", p1, p2)
	}
	if v1 != v2 || s1 != s2 {
		t.Fatalf("allocations on %d pages: VerifyPages %.0f, Stats %.0f; on %d pages: %.0f, %.0f", p1, v1, s1, p2, v2, s2)
	}
}
