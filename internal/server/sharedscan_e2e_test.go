package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"dualsim/internal/core"
)

// sharedScanConfig is the serving shape for the shared-scan e2e tests: the
// cohort engine holds the undivided global budget while solo engines stay
// available for fallback.
func sharedScanConfig() Config {
	return Config{
		Engines:            2,
		QueueDepth:         32,
		QueueWait:          30 * time.Second,
		ShareScan:          true,
		CohortMaxRiders:    4,
		SlowQueryThreshold: -1, // record every rider in the slow log
		Engine:             core.Options{Threads: 2, BufferFrames: 64},
	}
}

// runClients fires the given specs concurrently and returns the counts in
// spec order, failing the test on any HTTP or decode error.
func runClients(t *testing.T, addr string, specs []string) []uint64 {
	t.Helper()
	counts := make([]uint64, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			resp, err := postQuery(t, addr, QueryRequest{Query: spec})
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				errs[i] = fmt.Errorf("client %d (%s): status %d: %s", i, spec, resp.StatusCode, b)
				return
			}
			counts[i] = decodeQueryResponse(t, resp).Count
		}(i, spec)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return counts
}

// TestE2ESharedScanSublinearPages is the PR's acceptance scenario: against
// a ShareScan server, 4 identical concurrent queries must cost < 1.5x the
// physical pages of a single solo run (measured by dualsim_pages_read_total
// on each server), and a following 32-client wave of same + overlapping
// queries must keep total reads sublinear in client count while every count
// stays bit-identical to its solo baseline. Run under -race in CI.
func TestE2ESharedScanSublinearPages(t *testing.T) {
	db := buildCompleteDB(t, 16, 256) // C(16,3) = 560 triangles

	// Solo baselines on a non-sharing server with the same global budget.
	solo := newTestServer(t, db, Config{
		Engines: 1,
		Engine:  core.Options{Threads: 2, BufferFrames: 64},
	})
	soloBefore := metricValue(t, solo.Addr(), "dualsim_pages_read_total")
	soloTri := countQuery(t, solo.Addr(), "q1").Count
	soloPages := metricValue(t, solo.Addr(), "dualsim_pages_read_total") - soloBefore
	soloSquare := countQuery(t, solo.Addr(), "0-1,1-2,2-3,0-3").Count
	if soloTri != 560 {
		t.Fatalf("solo triangle count = %d, want 560", soloTri)
	}
	if soloPages <= 0 {
		t.Fatal("solo run read no pages")
	}

	s := newTestServer(t, db, sharedScanConfig())

	// Acceptance: 4 identical concurrent queries through one cohort.
	before := metricValue(t, s.Addr(), "dualsim_pages_read_total")
	for _, c := range runClients(t, s.Addr(), []string{"q1", "q1", "q1", "q1"}) {
		if c != soloTri {
			t.Errorf("cohort count %d, solo %d", c, soloTri)
		}
	}
	cohortPages := metricValue(t, s.Addr(), "dualsim_pages_read_total") - before
	if cohortPages >= 1.5*soloPages {
		t.Errorf("4 cohorted queries read %.0f pages, solo run reads %.0f: %.2fx >= 1.5x",
			cohortPages, soloPages, cohortPages/soloPages)
	}
	t.Logf("acceptance: solo=%.0f pages, cohort-4q=%.0f pages (%.2fx)",
		soloPages, cohortPages, cohortPages/soloPages)

	// 32 clients, same + overlapping queries: three triangle labelings that
	// collapse to one plan (singleflight), plus a square that rides the same
	// sweep as a different forest.
	specs := make([]string, 32)
	shapes := []string{"q1", "0-1,1-2,0-2", "1-2,0-2,0-1", "0-1,1-2,2-3,0-3"}
	for i := range specs {
		specs[i] = shapes[i%len(shapes)]
	}
	counts := runClients(t, s.Addr(), specs)
	for i, c := range counts {
		want := soloTri
		if i%len(shapes) == 3 {
			want = soloSquare
		}
		if c != want {
			t.Errorf("client %d (%s): count %d, solo %d", i, specs[i], c, want)
		}
	}
	totalPages := metricValue(t, s.Addr(), "dualsim_pages_read_total") - before
	// Sublinear: 36 queries must read far fewer pages than 36 solo runs.
	if limit := 0.5 * 36 * soloPages; totalPages >= limit {
		t.Errorf("36 shared queries read %.0f pages, want < %.0f (0.5 x 36 solo runs)", totalPages, limit)
	}

	// Cohort surface: /stats fields and the serving metrics.
	st := getStats(t, s.Addr())
	if !st.ShareScan || st.Cohort == nil {
		t.Fatalf("/stats missing cohort fields: share_scan=%v cohort=%v", st.ShareScan, st.Cohort)
	}
	fallbacks := uint64(metricValue(t, s.Addr(), "dualsim_server_cohort_fallbacks_total"))
	if got := st.Cohort.RidersTotal + fallbacks; got != 36 {
		t.Errorf("riders_total %d + fallbacks %d = %d, want 36", st.Cohort.RidersTotal, fallbacks, got)
	}
	if st.Cohort.MaxRiders != 4 || st.Cohort.ActiveRiders != 0 {
		t.Errorf("cohort stats %+v after drain", st.Cohort)
	}
	if st.Cohort.Sweeps == 0 || st.Cohort.SharedWindows == 0 || st.Cohort.SharedPages == 0 {
		t.Errorf("cohort counters did not move: %+v", st.Cohort)
	}
	for _, m := range []string{
		"dualsim_cohort_size", "dualsim_shared_windows_total",
		"dualsim_cohort_riders_total", "dualsim_sweep_pages_read_total",
	} {
		metricValue(t, s.Addr(), m) // fails the test if absent
	}

	// Per-rider resilience surfaces still settle: every query landed in the
	// slow log (threshold < 0 records all).
	if st.SlowLog.Observed != 36 {
		t.Errorf("slow log observed %d queries, want 36", st.SlowLog.Observed)
	}
}

// TestBouncedRiderQueueFullIs429: a rider bounced to the solo pool (its plan
// is too deep for the cohort's rider share) that finds the admission queue
// full is refused like any other saturated request — 429 + Retry-After, and
// booked once under dualsim_server_rejected_queue_full_total — not answered
// with a 500.
func TestBouncedRiderQueueFullIs429(t *testing.T) {
	db := buildCompleteDB(t, 16, 256)
	// 8 frames and 4 seats leave each rider one deep frame: a triangle
	// boards, the 4-clique (two deep levels) bounces to the one-engine pool.
	s := newTestServer(t, db, Config{
		Engines:         1,
		QueueDepth:      1,
		ShareScan:       true,
		CohortMaxRiders: 4,
		Engine:          core.Options{Threads: 1, BufferFrames: 8},
	})
	eng, err := s.acquire(context.Background(), s.current()) // saturate the pool
	if err != nil {
		t.Fatal(err)
	}

	// The first bounced rider takes the one queue place and waits there.
	waiter := make(chan QueryResponse, 1)
	go func() {
		resp, err := postQuery(t, s.Addr(), QueryRequest{Query: clique4Spec})
		if err != nil {
			t.Error(err)
			waiter <- QueryResponse{}
			return
		}
		waiter <- decodeQueryResponse(t, resp)
	}()
	for deadline := time.Now().Add(5 * time.Second); s.waiters.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the bounced rider never queued for a solo engine")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: clique4Spec})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("bounced rider on a full queue: status %d, Retry-After %q: %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if got := s.sm.rejectedFull.Value(); got != 1 {
		t.Errorf("rejected_queue_full = %d, want 1", got)
	}
	if got := s.sm.cohortFallbacks.Value(); got != 2 {
		t.Errorf("cohort fallbacks = %d, want 2 (both 4-cliques bounced)", got)
	}

	s.release(s.current(), eng)
	if qr := <-waiter; qr.Count != 1820 { // C(16,4)
		t.Errorf("queued bounced rider count = %d, want 1820", qr.Count)
	}
}
