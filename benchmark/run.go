package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"dualsim"
	"dualsim/internal/core"
)

// Per-run constants. A run is one workload, traced or not.
const (
	// setupRepeats is how often a run sets the system up; setup_s is the
	// median, so one slow build does not decide it.
	setupRepeats = 5
	// warmupCycles precede every timed window.
	warmupCycles = 2
	// A traced run spends a quarter of its box on an untraced reference
	// window and half on the traced one; the layer micro-timings use about
	// what is left.
	tracedRefShare, tracedShare = 0.25, 0.5
	// compactRounds is how many POST /admin/compact calls a traced
	// ingest_mix run times.
	compactRounds = 3
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run reports: the contract's four keys, then what
// the full document prints beside them.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples counts the correct replies behind the medians, per class.
	Samples map[string]int `json:"samples"`
	// Model holds the inputs of Equation 1 and of Silvestri's bound.
	Model map[string]float64 `json:"equation1_inputs,omitempty"`
	// LayerSelfMS is each layer's self time over the traced window's
	// request spans: the span minus what its children cover.
	LayerSelfMS map[string]float64 `json:"layer_self_ms,omitempty"`
	Problems    []string           `json:"problems,omitempty"`
}

// line is the result in the contract's shape: its four keys and no more.
func (r *runResult) line() any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// runConfig is what a run needs besides its workload.
type runConfig struct {
	fixture *fixture
	dir     string        // scratch directory for databases and traces
	box     time.Duration // the --seconds time box
	cycles  int           // when positive, windows run this many cycles and ignore box
	traced  bool
}

// bringUp builds, opens, serves and warms the workload's stack, checking
// every warm-up reply.
func bringUp(w *workload, cfg runConfig) (*stack, error) {
	st, err := startStack(w, cfg.fixture, cfg.dir)
	if err != nil {
		return nil, err
	}
	win, err := runWindow(windowSpec{w: w, f: cfg.fixture, base: st.base, cycles: warmupCycles, check: true})
	if err == nil {
		for _, s := range win.Samples {
			if !s.OK {
				err = fmt.Errorf("%s warm-up: %s reply %d %q counted %d, want %d",
					w.Name, s.Class, s.Status, s.Err, s.Reply.Count, cfg.fixture.ref[s.Class])
				break
			}
		}
	}
	if err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// runWorkload performs one run and returns its result. An error means the
// run could not be made; wrong answers are a result with Correct false.
func runWorkload(w *workload, cfg runConfig) (*runResult, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	repeats := setupRepeats
	if cfg.traced {
		repeats = 1 // setup_s is an untraced metric
	}
	var st *stack
	setups := make([]float64, repeats)
	for i := range setups {
		if st != nil {
			if err := st.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if st, err = bringUp(w, cfg); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
	}
	res, err := measure(w, cfg, st, median(setups))
	if serr := st.stop(); err == nil {
		err = serr
	}
	return res, err
}

// measure drives the timed windows against a warm stack.
func measure(w *workload, cfg runConfig, st *stack, setupS float64) (*runResult, error) {
	f := cfg.fixture
	spec := windowSpec{w: w, f: f, base: st.base, box: cfg.box, cycles: cfg.cycles, check: !w.Writer, label: w.Name}
	if w.Writer {
		n, edges, err := liveEdges(st.path)
		if err != nil {
			return nil, err
		}
		spec.stream = newEdgeStream(f.seed, n, edges)
	}
	ms := newMetricSet(cfg.traced)
	res := &runResult{Samples: map[string]int{}}

	var win, ref *window
	var compactMS []float64
	var rec *spanRecorder
	var err error
	if cfg.traced {
		spec.box = time.Duration(tracedRefShare * float64(cfg.box))
		if ref, err = runWindow(spec); err != nil {
			return nil, err
		}
		rec = newSpanRecorder()
		spec.rec = rec
		spec.box = time.Duration(tracedShare * float64(cfg.box))
	}
	if win, err = runWindow(spec); err != nil {
		return nil, err
	}
	if cfg.traced && w.Writer {
		if compactMS, err = timedCompactions(st.base, spec.stream, rec, compactRounds); err != nil {
			return nil, err
		}
	}

	// The mutated graph: the server must agree with the brute-force count
	// on the edge set the writer left behind.
	var final []sample
	if w.Writer {
		want := map[string]uint64{}
		for _, class := range []string{classQ1, classQ3} {
			c, err := dualsim.CountInMemory(spec.stream.n, spec.stream.live, classQuery(class))
			if err != nil {
				return nil, err
			}
			want[class] = c
		}
		final = finalCheck(st.base, want)
	}

	t, refT := tallyWindow(win), tallyWindow(ref)
	for _, wt := range []*tally{refT, t} {
		res.Attempted += wt.attempted
		res.Failed += wt.failed
		res.Problems = append(res.Problems, wt.problems...)
	}
	for _, s := range final {
		res.Attempted++
		if !s.OK {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("final %s: status %d %q counted %d on the mutated graph", s.Class, s.Status, s.Err, s.Reply.Count))
		}
	}
	res.Correct = res.Failed == 0
	res.Samples["replies"] = len(t.all)
	for class, v := range t.byClass {
		res.Samples[class] = len(v)
	}
	res.Samples["writes"] = len(t.writeMS)

	if !cfg.traced {
		endToEndMetrics(ms, st, t, setupS)
	} else {
		mt, err := microTimings(f, w, cfg.dir, rec)
		if err != nil {
			return nil, fmt.Errorf("micro-timings: %w", err)
		}
		perLayerMetrics(ms, res, w, st, t, refT, win, mt, compactMS)
		res.LayerSelfMS = map[string]float64{}
		for layer, ns := range layerSelfNS(rec.requestSpans()) {
			res.LayerSelfMS[layer] = float64(ns) / 1e6
		}
		if err := rec.writeJSONL(filepath.Join(cfg.dir, "trace-"+w.Name+".jsonl")); err != nil {
			return nil, err
		}
	}
	res.Metrics, err = ms.finish()
	return res, err
}

// tally is a window reduced to the series the metrics are computed from.
type tally struct {
	attempted, failed int
	problems          []string
	qps               float64 // correct replies per second, summed over clients
	byClass           map[string][]float64
	all               []float64 // latency of every correct reply, ms
	ok                []sample
	writeMS           []float64
	ackedOps          int
	writerSeconds     float64
	overlayMax        int
}

func tallyWindow(win *window) *tally {
	t := &tally{byClass: map[string][]float64{}}
	if win == nil {
		return t
	}
	okByClient := map[int]int{}
	for _, s := range win.Samples {
		t.attempted++
		if !s.OK {
			t.failed++
			if len(t.problems) < 5 {
				t.problems = append(t.problems, fmt.Sprintf("%s: status %d %q count %d rows %d", s.Class, s.Status, s.Err, s.Reply.Count, s.Rows))
			}
			continue
		}
		ms := float64(s.Latency) / 1e6
		t.byClass[s.Class] = append(t.byClass[s.Class], ms)
		t.all = append(t.all, ms)
		t.ok = append(t.ok, s)
		okByClient[s.Client]++
	}
	for i, el := range win.ClientElapsed {
		t.qps += ratio(float64(okByClient[i]), el.Seconds())
	}
	for _, ws := range win.Writes {
		t.attempted++
		if !ws.OK {
			t.failed++
			continue
		}
		t.writeMS = append(t.writeMS, float64(ws.Latency)/1e6)
		t.ackedOps += ws.Ops
		t.overlayMax = max(t.overlayMax, ws.DeltaVertices)
	}
	t.writerSeconds = win.WriterElapsed.Seconds()
	return t
}

func endToEndMetrics(ms *metricSet, st *stack, t *tally, setupS float64) {
	ms.set("setup_s", setupS)
	ms.set("qps", t.qps)
	for _, class := range countClasses {
		ms.set(class+"_p50_ms", median(t.byClass[class]))
	}
	ms.set("query_p90_ms", percentile(t.all, 0.90))
	ms.set("disk_bytes_per_edge", ratio(float64(st.fileBytes), float64(st.build.NumEdges)))
}

// perLayerMetrics fills every per-layer metric from the traced window t
// (raw window win), the untraced reference window ref, the micro-timings mt
// and the timed compactions.
func perLayerMetrics(ms *metricSet, res *runResult, w *workload, st *stack, t, ref *tally, win *window, mt map[string]float64, compactMS []float64) {
	for name, v := range mt {
		ms.set(name, v)
	}

	// Caller-visible numbers that exist on one workload each.
	ms.set("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	ms.set("ingest_ops_per_s", ratio(float64(t.ackedOps), t.writerSeconds))
	ms.set("write_ack_p50_ms", median(t.writeMS))
	ms.set("write_ack_p90_ms", percentile(t.writeMS, 0.90))

	// client: the generator's own view.
	ms.set("client.requests", float64(t.attempted))
	ms.set("client.failed", float64(t.failed))
	var overheadUS, queueMS, firstRow []float64
	var cached, prepNS, latencyNS, execNS float64
	var streamRows, streamClientNS, streamExecNS float64
	execByClass := map[string][]float64{}
	pagesByClass := map[string][]float64{}
	var pr profileSums
	for _, s := range t.ok {
		r := s.Reply
		if s.Stream {
			streamRows += float64(s.Rows)
			streamClientNS += float64(s.Latency)
			streamExecNS += float64(r.ExecNS)
			firstRow = append(firstRow, float64(s.FirstRow)/1e6)
		} else {
			overheadUS = append(overheadUS, float64(s.Latency.Nanoseconds()-r.QueueNS-r.PrepNS-r.ExecNS)/1e3)
		}
		queueMS = append(queueMS, float64(r.QueueNS)/1e6)
		if r.PlanCached {
			cached++
		}
		prepNS += float64(r.PrepNS)
		execNS += float64(r.ExecNS)
		latencyNS += float64(s.Latency)
		execByClass[s.Class] = append(execByClass[s.Class], float64(r.ExecNS)/1e6)
		if p := r.Profile; p != nil {
			pr.add(p)
			pagesByClass[s.Class] = append(pagesByClass[s.Class], float64(p.PagesRead))
		}
	}
	n := float64(len(t.ok))
	before, after := win.Before.Stats, win.After.Stats
	varsDelta := func(name string) float64 {
		return counterDelta(win.After.Vars.Counters[name], win.Before.Vars.Counters[name])
	}
	// Page reads are attributed exactly: to the query that ran solo, or to
	// the sweep its cohort rode. The pool's other counters reach a solo
	// query's profile too, but a rider's profile holds none of them (the
	// sweep owns the pool), so a shared-scan workload reads them from the
	// server's registry instead.
	if w.ShareScan && after.Cohort != nil && before.Cohort != nil {
		pr.pagesRead += counterDelta(after.Cohort.SweepPagesRead, before.Cohort.SweepPagesRead)
		pr.bufferHits, pr.logicalReads = varsDelta("dualsim_buffer_hits_total"), varsDelta("dualsim_logical_reads_total")
		pr.coalescedPages, pr.coalescedRuns = varsDelta("dualsim_coalesced_pages_total"), varsDelta("dualsim_coalesced_runs_total")
	}
	ms.set("pages_per_query", ratio(pr.pagesRead, n))
	ms.set("stream_rows_per_s", ratio(streamRows, streamClientNS/1e9))
	ms.set("stream_first_row_p50_ms", median(firstRow))
	ms.set("client.http_overhead_us_p50", median(overheadUS))
	for _, class := range countClasses {
		ms.set("client.class_p50_ms."+class, median(t.byClass[class]))
	}

	// server and sharedscan.
	ms.set("server.queue_ms_p50", median(queueMS))
	ms.set("server.rejected_429", counterDelta(after.Rejected, before.Rejected))
	ms.set("server.plan_cached_ratio", ratio(cached, n))
	ms.set("server.emit_rows_per_s", ratio(streamRows, streamExecNS/1e9))
	if after.Cohort != nil && before.Cohort != nil {
		riders := counterDelta(after.Cohort.RidersTotal, before.Cohort.RidersTotal)
		shared := counterDelta(after.Cohort.SharedPages, before.Cohort.SharedPages)
		read := counterDelta(after.Cohort.SweepPagesRead, before.Cohort.SweepPagesRead)
		ms.set("server.cohort_riders_mean", ratio(riders, counterDelta(after.Cohort.Sweeps, before.Cohort.Sweeps)))
		ms.set("server.shared_pages_ratio", ratio(shared, shared+read))
	}
	if after.Ingest != nil && before.Ingest != nil {
		ms.set("server.compactions", counterDelta(after.Ingest.Compactions, before.Ingest.Compactions))
	}
	ms.set("server.compact_ms_p50", median(compactMS))
	ms.set("server.overlay_vertices_max", float64(t.overlayMax))

	// plan.
	ms.set("plan.prep_share", ratio(prepNS, latencyNS))

	// core.
	for _, class := range countClasses {
		ms.set("core.exec_ms_p50."+class, median(execByClass[class]))
		ms.set("core.pages_read_per_query."+class, mean(pagesByClass[class]))
	}
	ms.set("core.io_wait_share", ratio(pr.ioWaitNS, execNS))
	ms.set("core.pin_wait_ms", ratio(pr.pinWaitNS/1e6, n))
	ms.set("core.windows_per_query", ratio(pr.windows, n))
	ms.set("core.windows_level1", ratio(pr.windowsLevel1, n))
	ms.set("core.embeddings_per_s", ratio(pr.embeddings, execNS/1e9))
	ms.set("core.steal_splits", ratio(pr.stealSplits, n))
	perPageNS := mt["storage.read_ns_per_page.seq"] + mt["storage.parse_ns_per_page.plain"]
	if w.Compress {
		perPageNS = mt["storage.read_ns_per_page.seq"] + mt["storage.parse_lazy_ns_per_page.compressed"]
	}
	ms.set("core.load_share_est", ratio(pr.pagesRead*perPageNS, execNS))
	modelDistances(ms, res, w, st, pagesByClass)

	// buffer.
	ms.set("buffer.hit_ratio", ratio(pr.bufferHits, pr.logicalReads))
	ms.set("buffer.coalesced_pages_per_run", ratio(pr.coalescedPages, pr.coalescedRuns))
	ms.set("buffer.prefetch_useful_ratio", ratio(pr.prefetchUseful, pr.prefetchIssued))
	ms.set("buffer.evictions", varsDelta("dualsim_buffer_evictions_total"))

	// graph kernels, as the engine chose them.
	kernels := pr.linear + pr.gallop + pr.kway
	ms.set("graph.gallop_ratio", ratio(pr.gallop, kernels))
	ms.set("graph.kway_ratio", ratio(pr.kway, kernels))

	// obs: what asking for the profile cost, as the mean over classes of
	// the traced median latency against the untraced one.
	var overhead []float64
	for class, v := range t.byClass {
		if base := median(ref.byClass[class]); base > 0 && len(v) > 0 {
			overhead = append(overhead, 100*(median(v)/base-1))
		}
	}
	ms.set("obs.profile_overhead_pct", mean(overhead))

	// process: the whole benchmark process, generator included.
	ms.set("process.peak_heap_mb", win.PeakHeapMB)
	ms.set("process.gc_pause_ms", win.GCPauseMS)
	ms.set("process.cpu_s", win.CPUSeconds)
}

// profileSums adds up the cost profiles of a window's replies.
type profileSums struct {
	pagesRead                                                            float64
	ioWaitNS, pinWaitNS, windows, windowsLevel1, embeddings, stealSplits float64
	bufferHits, logicalReads, coalescedPages, coalescedRuns              float64
	prefetchUseful, prefetchIssued, linear, gallop, kway                 float64
}

func (s *profileSums) add(p *dualsim.CostProfile) {
	s.pagesRead += float64(p.PagesRead)
	s.ioWaitNS += float64(p.IOWaitNS)
	s.pinWaitNS += float64(p.PinWaitNS)
	s.windows += float64(p.Windows)
	s.windowsLevel1 += float64(p.WindowsLevel1)
	s.embeddings += float64(p.EmbInternal + p.EmbExternal)
	s.stealSplits += float64(p.StealSplits)
	s.bufferHits += float64(p.BufferHits)
	s.logicalReads += float64(p.LogicalReads)
	s.coalescedPages += float64(p.CoalescedPages)
	s.coalescedRuns += float64(p.CoalescedRuns)
	s.prefetchUseful += float64(p.PrefetchUseful)
	s.prefetchIssued += float64(p.PrefetchIssued)
	s.linear += float64(p.IntersectLinear)
	s.gallop += float64(p.IntersectGallop)
	s.kway += float64(p.IntersectKWay)
}

// modelDistances sets pages read against the paper's Equation 1 and, since
// q1 and q4 are cliques, against Silvestri's I/O bound for k-clique
// enumeration, E^(k/2) / (B * M^(k/2-1)), floored at one scan. The inputs go
// into res.Model so the document prints them beside the ratios.
func modelDistances(ms *metricSet, res *runResult, w *workload, st *stack, pagesByClass map[string][]float64) {
	res.Model = map[string]float64{}
	pageWords := float64(st.db.PageSize()) / 4
	edgeWords := 2 * float64(st.db.NumEdges()) // each undirected edge is stored twice
	bufferWords := float64(st.frames/w.Engines) * pageWords
	res.Model["edge_words"] = edgeWords
	res.Model["buffer_words"] = bufferWords
	res.Model["page_words"] = pageWords
	res.Model["frames"] = float64(st.frames / w.Engines)
	for class, k := range map[string]float64{classQ1: 3, classQ4: 4} {
		read := mean(pagesByClass[class])
		levels := classQuery(class).NumVertices() - 1 // |V_R| of a clique: all but one vertex
		predicted := core.CostModel{Edges: edgeWords, BufferWords: bufferWords, PageWords: pageWords, Levels: levels}.PredictedReads()
		bound := math.Max(edgeWords/pageWords, math.Pow(edgeWords, k/2)/(pageWords*math.Pow(bufferWords, k/2-1)))
		res.Model["levels."+class] = float64(levels)
		res.Model["pages_read."+class] = read
		res.Model["equation1_pages."+class] = predicted
		res.Model["silvestri_pages."+class] = bound
		ms.set("core.model_distance."+class, ratio(read, predicted))
		ms.set("core.silvestri_distance."+class, ratio(read, bound))
	}
}

// metricSet collects one run's metrics and checks them against the
// declared names: nothing undeclared goes out, and nothing declared is
// missing.
type metricSet struct {
	decls  []metricDecl
	units  map[string]string
	values map[string]metricValue
	errs   []string
}

func newMetricSet(traced bool) *metricSet {
	ms := &metricSet{decls: endToEnd, units: map[string]string{}, values: map[string]metricValue{}}
	if traced {
		ms.decls = perLayer
	}
	for _, d := range ms.decls {
		ms.units[d.Name] = d.Unit
	}
	return ms
}

func (ms *metricSet) set(name string, v float64) {
	unit, ok := ms.units[name]
	if !ok {
		ms.errs = append(ms.errs, "undeclared metric "+name)
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		ms.errs = append(ms.errs, fmt.Sprintf("metric %s is %v", name, v))
		return
	}
	ms.values[name] = metricValue{Value: v, Unit: unit}
}

// finish returns the metrics. A per-layer metric nothing set does not apply
// to this workload and reads 0; an end-to-end metric must have been set.
func (ms *metricSet) finish() (map[string]metricValue, error) {
	for _, d := range ms.decls {
		if _, ok := ms.values[d.Name]; ok {
			continue
		}
		if d.Bound > 0 {
			ms.errs = append(ms.errs, "end-to-end metric "+d.Name+" was not measured")
			continue
		}
		ms.values[d.Name] = metricValue{Value: 0, Unit: d.Unit}
	}
	if len(ms.errs) > 0 {
		return nil, fmt.Errorf("metrics: %v", ms.errs)
	}
	return ms.values, nil
}
