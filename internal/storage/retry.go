package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// PageSource is the page-fetch interface the buffer pool reads through and
// RetryReader wraps: ReadPagesInto reads len(buf)/PageSize() consecutive
// pages starting at first into buf, a page alone being a run of one, and
// returns how many leading pages it filled. On error that count is short of
// the run: the page after the filled ones is the page that failed, and the
// pages after it were not read. *DB implements it, as do RetryReader and any
// fault-injecting test double.
type PageSource interface {
	ReadPagesInto(first PageID, buf []byte) (int, error)
	PageSize() int
	NumPages() int
}

// RetryPolicy bounds the retry behaviour of a RetryReader.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after a transient read
	// failure (default 3). Permanent errors are never retried.
	MaxRetries int
	// CRCRetries is the number of re-reads after a checksum mismatch
	// before declaring the page corrupt (default 1, tolerating one torn
	// read of a page being written concurrently).
	CRCRetries int
	// BaseDelay is the first backoff delay (default 1ms). Successive
	// retries double it up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 100ms).
	MaxDelay time.Duration
	// Jitter is the fraction of each delay randomized away (default 0.5:
	// a delay d becomes d/2 + rand(d/2)), decorrelating concurrent
	// retriers.
	Jitter float64
	// Seed makes the jitter deterministic; 0 seeds from 1.
	Seed int64
	// Sleep replaces time.Sleep, letting tests run without waiting.
	Sleep func(time.Duration)
	// OnEvent, when non-nil, is invoked for each recovery event so callers
	// can trace the retry layer's activity: kind is "retry" (transient
	// failure re-attempt issued), "crc_reread" (checksum-mismatch re-read),
	// "recovered" (a read that failed at least once succeeded) or
	// "exhausted" (the budget ran out). attempt is the 1-based attempt
	// number the event followed. Called from whichever goroutine is
	// reading, concurrently; implementations must be thread-safe and fast.
	OnEvent func(kind string, pid PageID, attempt int)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.CRCRetries == 0 {
		p.CRCRetries = 1
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// RetryStats counts a RetryReader's recovery activity.
type RetryStats struct {
	// Reads is the number of pages read, each under its own retry budget.
	Reads uint64
	// Retries is the number of transient-failure re-attempts issued.
	Retries uint64
	// CRCRereads is the number of checksum-mismatch re-reads issued.
	CRCRereads uint64
	// Recovered counts reads that failed at least once but ultimately
	// succeeded.
	Recovered uint64
	// Exhausted counts reads that failed even after the full budget.
	Exhausted uint64
}

// RetryReader wraps a PageSource with bounded retries: transient read
// failures back off exponentially (with jitter) up to MaxRetries, and a
// checksum mismatch is re-read up to CRCRetries times (torn-read
// tolerance) before surfacing a *CorruptPageError. Permanent errors —
// out-of-range pages, unrecoverable device errors, repeated CRC failure —
// fail fast with the offending page identified. Safe for concurrent use.
type RetryReader struct {
	src    PageSource
	policy RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand

	reads      atomic.Uint64
	retries    atomic.Uint64
	crcRereads atomic.Uint64
	recovered  atomic.Uint64
	exhausted  atomic.Uint64
}

// NewRetryReader wraps src with the given policy (zero fields take
// defaults).
func NewRetryReader(src PageSource, policy RetryPolicy) *RetryReader {
	p := policy.withDefaults()
	return &RetryReader{src: src, policy: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// PageSize implements PageSource.
func (r *RetryReader) PageSize() int { return r.src.PageSize() }

// NumPages implements PageSource.
func (r *RetryReader) NumPages() int { return r.src.NumPages() }

// Stats returns a snapshot of the recovery counters.
func (r *RetryReader) Stats() RetryStats {
	return RetryStats{
		Reads:      r.reads.Load(),
		Retries:    r.retries.Load(),
		CRCRereads: r.crcRereads.Load(),
		Recovered:  r.recovered.Load(),
		Exhausted:  r.exhausted.Load(),
	}
}

// backoff returns the jittered delay for the given attempt (0-based).
func (r *RetryReader) backoff(attempt int) time.Duration {
	d := r.policy.BaseDelay << uint(attempt)
	if d > r.policy.MaxDelay || d <= 0 {
		d = r.policy.MaxDelay
	}
	jit := time.Duration(float64(d) * r.policy.Jitter)
	if jit > 0 {
		r.mu.Lock()
		d = d - jit + time.Duration(r.rng.Int63n(int64(jit)+1))
		r.mu.Unlock()
	}
	return d
}

// event reports one recovery event to the policy hook, if set.
func (r *RetryReader) event(kind string, pid PageID, attempt int) {
	if r.policy.OnEvent != nil {
		r.policy.OnEvent(kind, pid, attempt)
	}
}

// ReadPagesInto implements PageSource: it reads the consecutive pages
// starting at first into buf (a positive multiple of PageSize() bytes) page
// by page, each a run of one of the source's under its own retries
// (readPage), and stops at the first page that exhausts them, reporting the
// pages read before it. Unlike *DB.ReadPagesInto the run is not one device
// request: retry and checksum recovery are per page, so a single flaky page
// costs only its own budget instead of failing the whole run. The buffer
// pool still charges the run a single simulated seek, so coalescing keeps
// its latency benefit under the retry layer.
func (r *RetryReader) ReadPagesInto(first PageID, buf []byte) (int, error) {
	ps := r.PageSize()
	if len(buf) == 0 || len(buf)%ps != 0 {
		return 0, fmt.Errorf("storage: run buffer %d bytes, want a positive multiple of %d", len(buf), ps)
	}
	for i := 0; i*ps < len(buf); i++ {
		if err := r.readPage(first+PageID(i), buf[i*ps:(i+1)*ps]); err != nil {
			return i, err
		}
	}
	return len(buf) / ps, nil
}

// readPage fetches pid into buf, verifying the page checksum, retrying per
// the policy.
func (r *RetryReader) readPage(pid PageID, buf []byte) error {
	r.reads.Add(1)
	transientTries := 0
	crcTries := 0
	failed := false
	for {
		_, err := r.src.ReadPagesInto(pid, buf)
		if err == nil {
			cerr := VerifyPageChecksum(buf)
			if cerr == nil {
				if failed {
					r.recovered.Add(1)
					r.event("recovered", pid, transientTries+crcTries+1)
				}
				return nil
			}
			failed = true
			if crcTries < r.policy.CRCRetries {
				// Torn-read tolerance: re-read once (or per policy) before
				// declaring the page corrupt.
				crcTries++
				r.crcRereads.Add(1)
				r.event("crc_reread", pid, crcTries)
				continue
			}
			r.exhausted.Add(1)
			r.event("exhausted", pid, transientTries+crcTries+1)
			return cerr
		}
		failed = true
		if !IsTransient(err) {
			return err
		}
		if transientTries >= r.policy.MaxRetries {
			r.exhausted.Add(1)
			r.event("exhausted", pid, transientTries+1)
			return fmt.Errorf("storage: page %d: retry budget exhausted after %d attempts: %w",
				pid, transientTries+1, err)
		}
		r.policy.Sleep(r.backoff(transientTries))
		transientTries++
		r.retries.Add(1)
		r.event("retry", pid, transientTries)
	}
}
