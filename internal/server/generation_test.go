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
