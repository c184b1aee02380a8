package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"dualsim/internal/buffer"
	"dualsim/internal/core"
	"dualsim/internal/graph"
)

// postCompact triggers POST /admin/compact and returns its status and body.
func postCompact(addr string) (int, string, error) {
	resp, err := http.Post("http://"+addr+"/admin/compact", "application/json", nil)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// TestRiderFinishesAcrossCompaction: a cohort rider on board when a
// compaction swaps the database file finishes on the old file — 200 with the
// count of the epoch it was admitted at — instead of being cancelled with
// its sweep, and it never bounces to the solo pool.
func TestRiderFinishesAcrossCompaction(t *testing.T) {
	db := buildCompleteDB(t, 40, 256)
	s := newTestServer(t, db, Config{
		Engines:   2,
		ShareScan: true,
		Mutable:   true,
		Engine:    core.Options{Threads: 2, BufferFrames: 24, PerPageLatency: 3 * time.Millisecond},
	})

	type reply struct {
		status int
		qr     QueryResponse
		body   string
		err    error
	}
	rider := make(chan reply, 1)
	go func() {
		resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q4"})
		if err != nil {
			rider <- reply{err: err}
			return
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			rider <- reply{status: resp.StatusCode, body: string(b)}
			return
		}
		rider <- reply{status: resp.StatusCode, qr: decodeQueryResponse(t, resp)}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.current().sched.Stats().ActiveRiders == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the rider never boarded")
		}
		time.Sleep(time.Millisecond)
	}
	fallbacks := s.sm.cohortFallbacks.Value()

	if ir := mustIngest(t, s.Addr(), []EdgeOp{{Op: "delete", U: 0, V: 1}}); ir.Epoch != 1 {
		t.Fatalf("delete batch epoch = %d, want 1", ir.Epoch)
	}
	compacted := make(chan reply, 1)
	go func() {
		status, body, err := postCompact(s.Addr())
		compacted <- reply{status: status, body: body, err: err}
	}()

	r := <-rider
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("rider across the compaction: status %d, err %v: %s", r.status, r.err, r.body)
	}
	if r.qr.Count != 91390 || r.qr.DataEpoch != 0 { // C(40,4)
		t.Errorf("rider: count %d at epoch %d, want 91390 at 0", r.qr.Count, r.qr.DataEpoch)
	}
	if c := <-compacted; c.err != nil || c.status != http.StatusOK {
		t.Fatalf("compaction: status %d, err %v: %s", c.status, c.err, c.body)
	}
	if got := s.sm.cohortFallbacks.Value(); got != fallbacks {
		t.Errorf("cohort fallbacks %d -> %d: the compaction bounced the rider", fallbacks, got)
	}
	// A 4-clique through edge 0-1 is one of the C(38,2) pairs of the others.
	if qr := countQuery(t, s.Addr(), "q4"); qr.Count != 91390-703 || qr.DataEpoch != 1 {
		t.Errorf("after the compaction: count %d at epoch %d, want %d at 1", qr.Count, qr.DataEpoch, 91390-703)
	}
}

// TestCohortCountersSurviveCompaction: the cohort's sweep and sweep-page
// counters are registry counters every scheduler adds to, so the scheduler a
// compaction replaces takes nothing with it, and the attribution ledger —
// rider-attributed pages plus sweep pages equal dualsim_pages_read_total —
// holds across the swap.
func TestCohortCountersSurviveCompaction(t *testing.T) {
	db := buildCompleteDB(t, 10, 256)
	cfg := sharedScanConfig()
	cfg.Mutable = true
	s := newTestServer(t, db, cfg)
	names := []string{"dualsim_cohort_sweeps_total", "dualsim_sweep_pages_read_total"}
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
		st := getStats(t, s.Addr())
		if st.Cohort == nil || float64(st.Cohort.Sweeps) != last[0] || float64(st.Cohort.SweepPagesRead) != last[1] {
			t.Errorf("%s: /stats cohort %+v, /metrics %v", stage, st.Cohort, last)
		}
		if pages := metricValue(t, s.Addr(), "dualsim_pages_read_total"); attributed+last[1] != pages {
			t.Errorf("%s: attributed %v + sweep %v != dualsim_pages_read_total %v", stage, attributed, last[1], pages)
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

	query("cohort query")
	if last[0] == 0 || last[1] == 0 {
		t.Fatalf("the first query swept nothing (%v): the fixture proves nothing", last)
	}
	swept := last[0]
	mustIngest(t, s.Addr(), []EdgeOp{{Op: "delete", U: 0, V: 1}})
	query("overlay query")
	if status, body, err := postCompact(s.Addr()); err != nil || status != http.StatusOK {
		t.Fatalf("compaction: status %d, err %v: %s", status, err, body)
	}
	step("compaction")
	query("post-compaction cohort query")
	if last[0] <= swept {
		t.Errorf("post-compaction query started no sweep: sweeps %v", last[0])
	}
}

// TestDrainWaitsForBackgroundCompaction: a compaction that CompactEvery
// kicked off is part of the drain barrier. Drain returns only once it has
// finished, and the generation it published is closed with the server.
func TestDrainWaitsForBackgroundCompaction(t *testing.T) {
	db := buildCompleteDB(t, 10, 256)
	cfg := mutableCfg()
	cfg.ShareScan = true
	cfg.CompactEvery = 1
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// Hold the old generation as an admitted request would: the compaction
	// publishes its successor, then waits for this hold.
	old := s.enter()
	mustIngest(t, s.Addr(), []EdgeOp{{Op: "delete", U: 0, V: 1}})
	deadline := time.Now().Add(10 * time.Second)
	for s.current() == old {
		if time.Now().After(deadline) {
			t.Fatal("the background compaction never published a generation")
		}
		time.Sleep(time.Millisecond)
	}
	next := s.current()
	built := []*core.Engine{next.cohort}
	for i := 0; i < cfg.Engines; i++ {
		built = append(built, <-next.slots)
	}
	for _, e := range built[1:] {
		next.slots <- e
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while the compaction was in progress", err)
	case <-time.After(100 * time.Millisecond):
	}
	old.runs.Done()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if got := s.compactions.Load(); got != 1 {
		t.Fatalf("compactions = %d after Drain, want 1", got)
	}
	for i, e := range built {
		if _, err := e.Run(graph.Triangle()); !errors.Is(err, buffer.ErrPoolClosed) {
			t.Errorf("engine %d the compaction built is open after Drain: run err %v", i, err)
		}
	}
}
