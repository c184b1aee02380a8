package storage

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dualsim/internal/gen"
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

func (s *scriptedSource) ReadPagesInto(pid PageID, buf []byte) (int, error) {
	s.mu.Lock()
	i := s.reads
	s.reads++
	var step func([]byte) error
	if i < len(s.script) {
		step = s.script[i]
	}
	s.mu.Unlock()
	if step != nil {
		if err := step(buf); err != nil {
			return 0, err
		}
		return 1, nil
	}
	copy(buf, s.image)
	return 1, nil
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

// read reads page 7 through a RetryReader over s under policy, sleeping
// never unless policy says how, and returns the buffer, the reader's stats
// and the read's error.
func (s *scriptedSource) read(policy RetryPolicy) ([]byte, RetryStats, error) {
	if policy.Sleep == nil {
		policy.Sleep = noSleep
	}
	r, buf := NewRetryReader(s, policy), make([]byte, s.PageSize())
	_, err := r.ReadPagesInto(7, buf)
	return buf, r.Stats(), err
}

var hiccup = NewTransientError(7, errors.New("hiccup"))

func TestRetryReaderPassThrough(t *testing.T) {
	src := newScriptedSource(t)
	buf, st, err := src.read(RetryPolicy{})
	p := &Page{}
	if err != nil || ParsePageInto(p, buf, 7) != nil || p.Slots() != 1 || src.totalReads() != 1 || st != (RetryStats{Reads: 1}) {
		t.Fatalf("%v, page %d of %d slots, %d source reads, %+v; want page 7's one record on one read", err, p.ID, p.Slots(), src.totalReads(), st)
	}
}

func TestRetryReaderRecoversTransient(t *testing.T) {
	src := newScriptedSource(t)
	src.script = []func([]byte) error{failWith(hiccup), failWith(hiccup)}
	_, st, err := src.read(RetryPolicy{MaxRetries: 3})
	if err != nil || src.totalReads() != 3 || st != (RetryStats{Reads: 1, Retries: 2, Recovered: 1}) {
		t.Fatalf("%v after %d source reads, %+v; want recovered on the third", err, src.totalReads(), st)
	}
}

func TestRetryReaderExhaustsBudget(t *testing.T) {
	src := newScriptedSource(t)
	cause := errors.New("still down")
	for range 10 {
		src.script = append(src.script, failWith(NewTransientError(7, cause)))
	}
	_, st, err := src.read(RetryPolicy{MaxRetries: 2})
	if !errors.Is(err, cause) || !IsTransient(err) || src.totalReads() != 3 || st != (RetryStats{Reads: 1, Retries: 2, Exhausted: 1}) {
		t.Fatalf("%v after %d source reads, %+v; want the transient cause back after exactly 3", err, src.totalReads(), st)
	}
}

func TestRetryReaderFailsFastOnPermanent(t *testing.T) {
	src := newScriptedSource(t)
	src.script = []func([]byte) error{failWith(&IOError{Page: 7, Op: "read", Err: errors.New("bad sector")})}
	_, st, err := src.read(RetryPolicy{MaxRetries: 5})
	var ioe *IOError
	if !errors.As(err, &ioe) || ioe.Transient || src.totalReads() != 1 || st != (RetryStats{Reads: 1}) {
		t.Fatalf("%v after %d source reads, %+v; want the permanent IOError back, not retried", err, src.totalReads(), st)
	}
}

// TestReadPagesIntoReportsFilled: a run stops at the page that fails and
// reports the pages it filled before it, so a caller can deliver those and
// fail that page alone. The retry layer reads no page past the failed one; a
// file's run crossing its end reads the pages inside and fails the first
// page past it.
func TestReadPagesIntoReportsFilled(t *testing.T) {
	src := newScriptedSource(t)
	bad := &IOError{Page: 9, Op: "read", Err: errors.New("bad sector")}
	src.script = []func([]byte) error{src.ok, src.ok, failWith(bad)}
	r := NewRetryReader(src, RetryPolicy{Sleep: noSleep})
	filled, err := r.ReadPagesInto(7, make([]byte, 4*src.PageSize()))
	if filled != 2 || !errors.Is(err, bad) || src.totalReads() != 3 {
		t.Fatalf("retry layer: %d pages filled, %v after %d source reads; want 2, page 9's error, 3 reads", filled, err, src.totalReads())
	}
	db := buildTemp(t, gen.ChungLu(60, 240, 2.5, 3), BuildOptions{PageSize: 128})
	n := db.NumPages()
	buf := make([]byte, 3*db.PageSize())
	filled, err = db.ReadPagesInto(PageID(n-1), buf)
	var ioe *IOError
	if !errors.As(err, &ioe) || ioe.Page != PageID(n) || filled != 1 || ParsePageInto(&Page{}, buf[:db.PageSize()], PageID(n-1)) != nil {
		t.Fatalf("run [%d,%d) of a %d-page file: %d pages filled, %v; want the last page, then page %d out of range", n-1, n+2, n, filled, err, n)
	}
}

func TestRetryReaderHealsTornRead(t *testing.T) {
	src := newScriptedSource(t)
	src.script = []func([]byte) error{src.torn}
	_, st, err := src.read(RetryPolicy{CRCRetries: 1})
	if err != nil || src.totalReads() != 2 || st != (RetryStats{Reads: 1, CRCRereads: 1, Recovered: 1}) {
		t.Fatalf("%v after %d source reads, %+v; want the torn read healed on the second", err, src.totalReads(), st)
	}
}

func TestRetryReaderDeclaresCorruptionAfterBudget(t *testing.T) {
	src := newScriptedSource(t)
	for range 10 {
		src.script = append(src.script, src.torn)
	}
	_, st, err := src.read(RetryPolicy{CRCRetries: 2})
	if ce, ok := IsCorrupt(err); !ok || ce.Page != 7 || src.totalReads() != 3 || st != (RetryStats{Reads: 1, CRCRereads: 2, Exhausted: 1}) {
		t.Fatalf("%v after %d source reads, %+v; want page 7 corrupt after exactly 3", err, src.totalReads(), st)
	}
}

func TestRetryReaderMixedTransientThenTorn(t *testing.T) {
	src := newScriptedSource(t)
	src.script = []func([]byte) error{failWith(hiccup), src.torn}
	_, st, err := src.read(RetryPolicy{MaxRetries: 2, CRCRetries: 1})
	if err != nil || src.totalReads() != 3 || st != (RetryStats{Reads: 1, Retries: 1, CRCRereads: 1, Recovered: 1}) {
		t.Fatalf("%v after %d source reads, %+v; want one transient and one torn read survived", err, src.totalReads(), st)
	}
}

// TestRetryReaderOnEventHook checks the observability hook sees every
// recovery event in order, with the page and attempt identified, and
// exhaustion last.
func TestRetryReaderOnEventHook(t *testing.T) {
	var events []string
	onEvent := func(kind string, pid PageID, attempt int) {
		events = append(events, fmt.Sprintf("%s %d %d", kind, pid, attempt))
	}
	src := newScriptedSource(t)
	src.script = []func([]byte) error{failWith(hiccup), src.torn}
	if _, _, err := src.read(RetryPolicy{MaxRetries: 2, CRCRetries: 1, OnEvent: onEvent}); err != nil ||
		!slices.Equal(events, []string{"retry 7 1", "crc_reread 7 1", "recovered 7 3"}) {
		t.Fatalf("%v, events %q", err, events)
	}
	events, src = nil, newScriptedSource(t)
	for range 5 {
		src.script = append(src.script, failWith(hiccup))
	}
	if _, _, err := src.read(RetryPolicy{MaxRetries: 1, OnEvent: onEvent}); err == nil || !slices.Equal(events, []string{"retry 7 1", "exhausted 7 2"}) {
		t.Fatalf("%v, events %q; want exhaustion reported", err, events)
	}
}

func TestRetryBackoffBoundedAndDeterministic(t *testing.T) {
	policy := RetryPolicy{MaxRetries: 8, BaseDelay: time.Millisecond, MaxDelay: 16 * time.Millisecond, Jitter: 0.5, Seed: 42}
	delays := func() []time.Duration {
		var ds []time.Duration
		policy.Sleep = func(d time.Duration) { ds = append(ds, d) }
		src := newScriptedSource(t)
		for range 8 {
			src.script = append(src.script, failWith(hiccup))
		}
		if _, _, err := src.read(policy); err != nil || len(ds) != 8 {
			t.Fatalf("%v after %d delays, want 8", err, len(ds))
		}
		return ds
	}
	first := delays()
	for i, d := range first {
		// Attempt i's nominal delay is min(base<<i, max); jitter keeps it
		// within [nominal/2, nominal].
		nominal := min(policy.BaseDelay<<uint(i), policy.MaxDelay)
		if d < nominal/2 || d > nominal {
			t.Fatalf("delay %d = %v outside [%v, %v]", i, d, nominal/2, nominal)
		}
	}
	if second := delays(); !slices.Equal(first, second) {
		t.Fatalf("same seed produced different delays: %v vs %v", first, second)
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
