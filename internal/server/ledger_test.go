package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/faultdb"
	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// TestPoolCountersSurviveEngineSwaps: the pool's counters on /metrics live in
// the registry every engine shares, so neither a compaction (which rebuilds
// every engine over the folded file) nor a leaky-engine recycle resets them,
// and dualsim_pages_read_total stays exactly the pages the queries were
// attributed, plus what the leaking sweep read.
func TestPoolCountersSurviveEngineSwaps(t *testing.T) {
	db := buildCompleteDB(t, 10, 256)
	s := newTestServer(t, db, mutableCfg())
	names := []string{"dualsim_pages_read_total", "dualsim_logical_reads_total", "dualsim_buffer_evictions_total"}
	last := make([]float64, len(names))
	var attributed float64
	step := func(stage string) {
		t.Helper()
		for i, name := range names {
			v := metricValue(t, s.Addr(), name)
			if v < last[i] {
				t.Errorf("%s: %s went %v -> %v", stage, name, last[i], v)
			}
			last[i] = v
		}
		if last[0] != attributed {
			t.Errorf("%s: dualsim_pages_read_total = %v, the runs were attributed %v", stage, last[0], attributed)
		}
	}
	query := func(stage string) {
		t.Helper()
		resp, err := postQueryProfile(t, s.Addr(), QueryRequest{Query: "q1"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("%s: status %d: %s", stage, resp.StatusCode, b)
		}
		attributed += float64(decodeQueryResponse(t, resp).Profile.PagesRead)
		step(stage)
	}

	query("base query")
	mustIngest(t, s.Addr(), []EdgeOp{{Op: "delete", U: 0, V: 1}})
	query("overlay query")
	resp, err := http.Post("http://"+s.Addr()+"/admin/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr CompactResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil || !cr.Compacted {
		t.Fatalf("compact reply %+v, err %v", cr, err)
	}
	resp.Body.Close()
	step("compaction")
	query("post-compaction query")

	// A sweep that closes with its window still loaded leaves pins behind:
	// the engine goes back to the pool leaky and is replaced.
	eng, err := s.acquire(context.Background(), s.current())
	if err != nil {
		t.Fatal(err)
	}
	leak := obs.NewScope("leak")
	sw, err := eng.NewSweep(core.SweepOptions{Scope: leak})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Load(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	sw.Close()
	s.release(s.current(), eng)
	if got := s.sm.recycled.Value(); got != 1 {
		t.Fatalf("engines recycled = %d, want 1", got)
	}
	attributed += float64(leak.PagesRead.Load())
	step("recycle")
	query("post-recycle query")
	if last[0] == 0 {
		t.Error("no query read a page: the fixture proves nothing")
	}
}

// TestRetryCountersSumOverEngines: each pool engine has its own retry
// reader, and dualsim_retry_retries_total is what all of them retried.
func TestRetryCountersSumOverEngines(t *testing.T) {
	db := buildCompleteDB(t, 16, 256)
	pages := make([]storage.PageID, db.NumPages())
	for i := range pages {
		pages[i] = storage.PageID(i)
	}
	fdb := faultdb.Wrap(db, faultdb.Options{}).TransientPages(1, pages...)
	cfg := Config{Engines: 2, Engine: fastFaultTolerant(2)}
	cfg.Engine.BufferFrames = 64
	s := newFaultServer(t, fdb, cfg)

	// Hold one engine so the query runs on the other, then swap: every page
	// fails on its first read, which the first engine pays; the second
	// engine's first read is failed once on purpose.
	for round := 0; round < 2; round++ {
		held, err := s.acquire(context.Background(), s.current())
		if err != nil {
			t.Fatal(err)
		}
		if round == 1 {
			fdb.FailNth(fdb.Reads()+1, storage.NewTransientError(0, faultdb.ErrInjected))
		}
		if qr := countQuery(t, s.Addr(), "q1"); qr.Count != 560 {
			t.Errorf("round %d: count %d, want 560", round, qr.Count)
		}
		s.release(s.current(), held)
	}
	var sum uint64
	g := s.current()
	engines := make([]*core.Engine, cfg.Engines)
	for i := range engines {
		engines[i] = <-g.slots
		r := engines[i].RetryStats().Retries
		if r == 0 {
			t.Errorf("engine %d retried nothing", i)
		}
		sum += r
	}
	for _, e := range engines {
		g.slots <- e
	}
	if got := metricValue(t, s.Addr(), "dualsim_retry_retries_total"); got != float64(sum) {
		t.Errorf("dualsim_retry_retries_total = %v, the engines retried %d", got, sum)
	}
}

// TestBouncedRiderHonoursQueueWait: a rider bounced from the cohort to a busy
// solo pool waits no longer than its queue_wait_ms and is refused as any
// queued request is — 429 with Retry-After, booked under
// dualsim_server_rejected_deadline_total.
func TestBouncedRiderHonoursQueueWait(t *testing.T) {
	db := buildCompleteDB(t, 16, 256)
	// The TestBouncedRiderQueueFullIs429 budget: the 4-clique bounces.
	s := newTestServer(t, db, Config{
		Engines:         1,
		QueueWait:       100 * time.Millisecond,
		ShareScan:       true,
		CohortMaxRiders: 4,
		Engine:          core.Options{Threads: 1, BufferFrames: 8},
	})
	eng, err := s.acquire(context.Background(), s.current()) // hold the whole pool
	if err != nil {
		t.Fatal(err)
	}
	defer s.release(s.current(), eng)

	req, err := json.Marshal(QueryRequest{Query: clique4Spec, QueueWaitMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 3 * time.Second}
	start := time.Now()
	resp, err := client.Post("http://"+s.Addr()+"/query", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatalf("bounced rider still waiting after %v: %v", time.Since(start), err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("bounced rider past its queue wait: status %d, Retry-After %q: %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if got := s.sm.rejectedWait.Value(); got != 1 {
		t.Errorf("rejected_deadline = %d, want 1", got)
	}
	if got := s.sm.cohortFallbacks.Value(); got != 1 {
		t.Errorf("cohort fallbacks = %d, want 1", got)
	}
}
