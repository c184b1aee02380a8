package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"dualsim/internal/graph"
	"dualsim/internal/obs"
)

// parseTrace decodes a JSONL trace buffer.
func parseTrace(t *testing.T, buf *bytes.Buffer) []obs.Event {
	t.Helper()
	var events []obs.Event
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("corrupt trace line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	return events
}

// TestTracerWindowLifecycle runs a small query with a tiny buffer (forcing
// multiple windows per level) and checks every window traces one complete
// lifecycle: window_open -> window_pinned -> window_close, bracketed by
// run_start/run_end.
func TestTracerWindowLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g := randomGraph(rng, 200, 1400)
	db := buildDB(t, g, 128)
	var buf bytes.Buffer
	tracer := obs.NewJSONLTracer(&buf)
	e, err := NewEngine(db, Options{
		Threads:      2,
		BufferFrames: 14,
		Tracer:       tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(graph.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if res.Level1Windows < 2 {
		t.Fatalf("want a multi-window run for this test, got %d level-1 windows", res.Level1Windows)
	}

	// The tracer buffers; the engine flushes it on Close, and readers that
	// want events before then flush explicitly.
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	events := parseTrace(t, &buf)
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	if events[0].Event != "run_start" {
		t.Errorf("first event = %q, want run_start", events[0].Event)
	}
	last := events[len(events)-1]
	if last.Event != "run_end" {
		t.Errorf("last event = %q, want run_end", last.Event)
	}
	if last.Count != res.Count {
		t.Errorf("run_end count %d, want %d", last.Count, res.Count)
	}

	// Per (level, window): open, pinned and close must each appear exactly
	// once and in that order.
	type key struct{ level, window int }
	order := map[key][]string{}
	for _, ev := range events {
		switch ev.Event {
		case "window_open", "window_pinned", "window_close":
			k := key{ev.Level, ev.Window}
			order[k] = append(order[k], ev.Event)
		}
	}
	if len(order) == 0 {
		t.Fatal("no window events in trace")
	}
	windows := map[int]int{} // level -> windows seen
	for k, seq := range order {
		want := []string{"window_open", "window_pinned", "window_close"}
		if fmt.Sprint(seq) != fmt.Sprint(want) {
			t.Errorf("level %d window %d lifecycle = %v, want %v", k.level, k.window, seq, want)
		}
		windows[k.level]++
	}
	if windows[1] != res.Level1Windows {
		t.Errorf("trace has %d level-1 windows, result says %d", windows[1], res.Level1Windows)
	}
	// Every traced level-1 window dispatched internal enumeration.
	internal := 0
	for _, ev := range events {
		if ev.Event == "internal_enum" {
			internal++
		}
	}
	if internal != res.Level1Windows {
		t.Errorf("%d internal_enum events, want %d", internal, res.Level1Windows)
	}
	// Triangle has K=2 levels, so the last level must trace external
	// enumeration for each of its windows.
	external := 0
	for _, ev := range events {
		if ev.Event == "external_enum" {
			if ev.Level != res.Plan.K {
				t.Errorf("external_enum at level %d, want %d", ev.Level, res.Plan.K)
			}
			external++
		}
	}
	if external != windows[res.Plan.K] {
		t.Errorf("%d external_enum events, want one per last-level window (%d)", external, windows[res.Plan.K])
	}
}

// TestResultMetricsSnapshot checks the registry surfaces the engine's core
// quantities through Result.Metrics.
func TestResultMetricsSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 150, 700)
	db := buildDB(t, g, 256)
	e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 48})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(graph.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("Result.Metrics is nil")
	}
	c := res.Metrics.Counters
	if c["dualsim_pages_read_total"] == 0 {
		t.Error("dualsim_pages_read_total = 0")
	}
	if c["dualsim_windows_total"] == 0 {
		t.Error("dualsim_windows_total = 0")
	}
	if c["dualsim_runs_total"] != 1 {
		t.Errorf("dualsim_runs_total = %d, want 1", c["dualsim_runs_total"])
	}
	if got, want := c["dualsim_embeddings_total"], res.Count; got != want {
		t.Errorf("dualsim_embeddings_total = %d, want %d", got, want)
	}
	if c["dualsim_worker_tasks_submitted_total"] == 0 {
		t.Error("no worker tasks recorded")
	}
	if c["dualsim_worker_tasks_submitted_total"] != c["dualsim_worker_tasks_completed_total"] {
		t.Errorf("worker tasks submitted %d != completed %d after drain",
			c["dualsim_worker_tasks_submitted_total"], c["dualsim_worker_tasks_completed_total"])
	}
	if d := res.Metrics.Gauges["dualsim_worker_queue_depth"]; d != 0 {
		t.Errorf("queue depth after run = %g, want 0", d)
	}
	h, ok := res.Metrics.Histograms["dualsim_window_pages"]
	if !ok || h.Count == 0 {
		t.Error("dualsim_window_pages histogram empty")
	}
	if _, ok := res.Metrics.Histograms["dualsim_candidate_size"]; !ok {
		t.Error("dualsim_candidate_size histogram missing")
	}

	// A second run on the same engine accumulates.
	res2, err := e.Run(graph.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.Counters["dualsim_runs_total"] != 2 {
		t.Errorf("runs_total after second run = %d, want 2", res2.Metrics.Counters["dualsim_runs_total"])
	}
	if res2.Metrics.Counters["dualsim_embeddings_total"] != 2*res.Count {
		t.Errorf("embeddings_total after second run = %d, want %d",
			res2.Metrics.Counters["dualsim_embeddings_total"], 2*res.Count)
	}
}

// TestSharedRegistryAcrossEngines checks Options.Metrics lets callers
// aggregate several engines into one registry and serve it: the pool's
// counters included, which outlive the engine that counted them.
func TestSharedRegistryAcrossEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 100, 400)
	db := buildDB(t, g, 256)
	reg := obs.NewRegistry()
	var pages uint64
	for i := 0; i < 2; i++ {
		e, err := NewEngine(db, Options{Threads: 1, BufferFrames: 32, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if e.Registry() != reg {
			t.Fatal("engine did not adopt the shared registry")
		}
		res, err := e.Run(graph.Triangle())
		if err != nil {
			t.Fatal(err)
		}
		pages += res.Profile.PagesRead
		e.Close()
	}
	if got := reg.Snapshot().Counters["dualsim_runs_total"]; got != 2 {
		t.Errorf("shared registry runs_total = %d, want 2", got)
	}
	if got := reg.Snapshot().Counters["dualsim_pages_read_total"]; got != pages || pages == 0 {
		t.Errorf("shared registry pages_read_total = %d, the two runs read %d", got, pages)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dualsim_windows_total") {
		t.Error("prometheus render missing dualsim_windows_total")
	}
}

// TestDirectRunAttributed: a direct run, handed no scope, is attributed
// all the same — its Result.Profile is set, and its pages, logical reads
// and I/O wait are what the registry's counters moved by during the run.
func TestDirectRunAttributed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := buildDB(t, randomGraph(rng, 150, 700), 128)
	e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	names := []string{"dualsim_pages_read_total", "dualsim_logical_reads_total", "dualsim_io_wait_nanos_total"}
	for run := 0; run < 2; run++ {
		before := e.Registry().Snapshot().Counters
		res, err := e.Run(graph.Triangle())
		if err != nil {
			t.Fatal(err)
		}
		if res.Profile == nil {
			t.Fatalf("run %d: Result.Profile is nil", run)
		}
		after := e.Registry().Snapshot().Counters
		p := res.Profile
		if p.PagesRead == 0 {
			t.Errorf("run %d: profile pages_read is 0", run)
		}
		for i, want := range []uint64{p.PagesRead, p.LogicalReads, uint64(p.IOWaitNS)} {
			if delta := after[names[i]] - before[names[i]]; delta != want {
				t.Errorf("run %d: %s moved by %d, the profile holds %d", run, names[i], delta, want)
			}
		}
	}
}

// TestProgressReporterEmits checks the periodic progress line renders and
// contains the expected fields.
func TestProgressReporterEmits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 150, 900)
	db := buildDB(t, g, 128)
	var buf syncBuffer
	e, err := NewEngine(db, Options{
		Threads:          2,
		BufferFrames:     14,
		ProgressInterval: time.Millisecond,
		ProgressWriter:   &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(graph.Clique4()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dualsim: windows ") || !strings.Contains(out, "pages read ") {
		t.Errorf("progress output missing fields: %q", out)
	}
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
