package server

import (
	"sync"
	"time"
)

// Breaker states, also exported as the dualsim_breaker_state gauge.
// closed(0): normal admission. open(2): reject-fast with Retry-After until
// the cooldown elapses. halfopen(3): one probe request is in flight; its
// outcome closes or re-opens the breaker. The value 1 belonged to a retired
// degraded state and stays unused so dashboards do not shift.
const (
	breakerClosed   int32 = 0
	breakerOpen     int32 = 2
	breakerHalfOpen int32 = 3
)

func breakerStateName(s int32) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breakerConfig tunes a breaker.
type breakerConfig struct {
	window     int           // outcomes remembered (sliding ring)
	minSamples int           // outcomes required before openRatio applies
	openRatio  float64       // fault fraction that opens the breaker
	cooldown   time.Duration // open -> half-open delay
}

// poolBreaker is the service's breaker: once 4 outcomes are in, it opens
// when half of the last 8 were faults, and probes again a second later.
var poolBreaker = breakerConfig{window: 8, minSamples: 4, openRatio: 0.5, cooldown: time.Second}

// breaker is the per-pool circuit breaker. It watches run outcomes — a
// transient-fault failure counts as a fault — over a sliding window, opens
// (reject-fast with Retry-After) when too many of them are, then recovers
// through single half-open probes.
type breaker struct {
	cfg breakerConfig

	mu       sync.Mutex
	state    int32
	outcomes []bool // ring buffer, true = fault
	idx, n   int
	openedAt time.Time
	probing  bool
	trips    uint64
}

func newBreaker(cfg breakerConfig) *breaker {
	return &breaker{cfg: cfg, outcomes: make([]bool, cfg.window)}
}

// allow gates one request. ok=false rejects fast (retryAfter is the hint
// for the Retry-After header); probe marks the single half-open probe and
// must be passed to record (or cancelProbe) when the request settles.
func (b *breaker) allow() (ok bool, probe bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		since := time.Since(b.openedAt)
		if since < b.cfg.cooldown {
			return false, false, b.cfg.cooldown - since
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, true, 0
	case breakerHalfOpen:
		if b.probing {
			return false, false, b.cfg.cooldown
		}
		b.probing = true
		return true, true, 0
	}
	return true, false, 0
}

// record feeds one settled run outcome back. A probe outcome decides the
// half-open state: success closes the breaker (and forgets the bad
// window), a fault re-opens it. Non-probe outcomes recorded while the
// breaker is open or half-open (stragglers admitted before the trip) are
// ignored — the probe alone decides recovery.
func (b *breaker) record(fault bool, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		if fault {
			b.trip()
		} else {
			b.state = breakerClosed
			b.idx, b.n = 0, 0
		}
		return
	}
	if b.state != breakerClosed {
		return
	}
	b.outcomes[b.idx] = fault
	b.idx = (b.idx + 1) % len(b.outcomes)
	if b.n < len(b.outcomes) {
		b.n++
	}
	if b.n < b.cfg.minSamples {
		return
	}
	faults := 0
	for i := 0; i < b.n; i++ {
		if b.outcomes[i] {
			faults++
		}
	}
	if float64(faults)/float64(b.n) >= b.cfg.openRatio {
		b.trip()
	}
}

// cancelProbe releases the half-open probe slot without judging it (the
// probe request never ran: parse error, admission race, client gone).
func (b *breaker) cancelProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// trip opens the breaker; callers hold b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = time.Now()
	b.probing = false
	b.trips++
}

// snapshot returns the current state and cumulative trip count.
func (b *breaker) snapshot() (state int32, trips uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.trips
}
