package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dualsim/internal/buildinfo"
	"dualsim/internal/core"
	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/plan"
	"dualsim/internal/sharedscan"
	"dualsim/internal/storage"
)

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Query is a catalog name (q1..q5, triangle, ...) or an edge list like
	// "0-1,1-2,0-2".
	Query string `json:"query"`
	// Mode is "count" (default) or "embeddings" (NDJSON stream).
	Mode string `json:"mode,omitempty"`
	// Limit caps streamed embedding rows; clamped to the server's RowLimit.
	Limit int `json:"limit,omitempty"`
	// TimeoutMS bounds the run itself (0 = server default only).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// QueueWaitMS bounds the admission wait (0 = server default).
	QueueWaitMS int64 `json:"queue_wait_ms,omitempty"`
	// ResumeToken, when set, resumes a previous run of the SAME query from
	// the window-boundary checkpoint the token carries. The server replays
	// only windows at or after the checkpoint; counts come out exactly as
	// if the original run had finished. Tokens are opaque and bound to the
	// minting server process and the query's canonical plan.
	ResumeToken string `json:"resume_token,omitempty"`
}

// QueryResponse is the POST /query count-mode reply, and the trailer line
// of an embeddings stream.
type QueryResponse struct {
	Query         string `json:"query"`
	Count         uint64 `json:"count"`
	Internal      uint64 `json:"internal,omitempty"`
	External      uint64 `json:"external,omitempty"`
	Rows          uint64 `json:"rows,omitempty"`
	Truncated     bool   `json:"truncated,omitempty"`
	PlanCached    bool   `json:"plan_cached"`
	PrepNS        int64  `json:"prep_ns"`
	ExecNS        int64  `json:"exec_ns"`
	QueueNS       int64  `json:"queue_ns"`
	PhysicalReads uint64 `json:"physical_reads"`
	// Resumed reports the run replayed from a resume_token checkpoint;
	// Count then includes the checkpoint's settled totals.
	Resumed bool `json:"resumed,omitempty"`
	// SharedPages is nonzero when the query ran as a shared-scan cohort
	// rider: pages of sweep-loaded windows it consumed without paying
	// their physical reads (PhysicalReads, the rider's own attributed
	// pages_read, is 0 — the sweep owns the I/O).
	SharedPages uint64 `json:"shared_pages,omitempty"`
	// ResumeToken is set on a truncated embeddings trailer: resubmitting
	// the query with it continues from the last completed window instead
	// of restarting. Rows from the partially-streamed window are replayed
	// (at-least-once delivery); counts stay exactly-once.
	ResumeToken string `json:"resume_token,omitempty"`
	// DataEpoch is the data epoch the query observed: the overlay snapshot
	// pinned at admission (live ingest), or the base file's content epoch.
	// Counts are exact for this epoch; a later epoch may answer differently.
	DataEpoch uint64 `json:"data_epoch"`
	// TraceID is this request's trace ID, minted at admission and also
	// echoed in the X-Dualsim-Trace-Id response header; every span the
	// query emitted carries it.
	TraceID string `json:"trace_id,omitempty"`
	// ResumedFromTrace is the trace ID of the run that minted the redeemed
	// resume token, linking the continuation back to the original request.
	ResumedFromTrace string `json:"resumed_from_trace,omitempty"`
	// Profile is the per-query attributed cost breakdown, present when the
	// request asked for it with POST /query?profile=1.
	Profile *obs.CostProfile `json:"profile,omitempty"`
	Done    bool             `json:"done"`
}

// resumeTokenLine is the periodic mid-stream record carrying a checkpoint.
type resumeTokenLine struct {
	ResumeToken string `json:"resume_token"`
}

type errorResponse struct {
	Error string `json:"error"`
	// ResumeToken carries the last checkpoint of a failed embeddings
	// stream, so the client can retry from it rather than from scratch.
	ResumeToken string `json:"resume_token,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxQueryBody bounds a POST /query body (read through http.MaxBytesReader):
// a query spec and its options are a few hundred bytes.
const maxQueryBody = 1 << 20

// writeTooLarge answers 413, naming the bound, when err is a request body
// read past its http.MaxBytesReader limit, and reports whether it did.
func writeTooLarge(w http.ResponseWriter, err error) bool {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return false
	}
	writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
	return true
}

// reject emits the 429 saturation reply. Retry-After is a best-effort hint:
// one queue-wait's worth of backoff, in whole seconds (minimum 1).
func (s *Server) reject(w http.ResponseWriter, reason string) {
	s.rejectAfter(w, s.cfg.QueueWait, reason)
}

func (s *Server) rejectAfter(w http.ResponseWriter, retryAfter time.Duration, reason string) {
	retry := max(int(retryAfter/time.Second), 1)
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusTooManyRequests, "saturated: %s", reason)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Register with the drain barrier BEFORE the draining check: Drain sets
	// the flag and then waits for the in-flight group, so this order
	// guarantees every request that passes the check is waited for.
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.sm.requests.Inc()

	// Per-request attribution starts here: mint the trace ID at admission
	// and echo it on every reply (including rejections), so a client can
	// correlate any response — even a 429 — with server-side spans.
	reqStart := time.Now()
	traceID := obs.NewTraceID()
	w.Header().Set("X-Dualsim-Trace-Id", traceID)

	// Breaker gate, before any parsing or admission work: an open breaker
	// means the device is misbehaving and the cheapest thing the service
	// can do is tell the client when to come back.
	allowed, probe, retryAfter := s.br.allow()
	if !allowed {
		s.sm.breakerRejects.Inc()
		s.rejectAfter(w, retryAfter, "circuit breaker open")
		return
	}
	// A granted probe must be settled exactly once: recordRunOutcome (or
	// cancelProbe, when the request dies before a run settles) clears it.
	probeArmed := probe
	defer func() {
		if probeArmed {
			s.br.cancelProbe()
		}
	}()

	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		if !writeTooLarge(w, err) {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "missing \"query\"")
		return
	}
	q, err := graph.ParseQuerySpec(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad query: %v", err)
		return
	}
	streaming := false
	switch req.Mode {
	case "", "count":
	case "embeddings":
		streaming = true
	default:
		writeError(w, http.StatusBadRequest, "bad mode %q (want count or embeddings)", req.Mode)
		return
	}

	// The attribution scope rides the whole serving path: the engine and
	// its buffer pool mirror every cost counter into it, and its span
	// sequence is shared between the server (query/plan spans) and the
	// engine (run/level/window spans) so IDs never collide.
	scope := obs.NewScope(traceID)
	querySpan := scope.NextSpanID()
	scope.SetRootSpan(querySpan)
	wantProfile := false
	switch r.URL.Query().Get("profile") {
	case "1", "true":
		wantProfile = true
	}
	s.emitSpan(obs.Event{Event: "query_start", TraceID: traceID, Span: querySpan})

	planStart := time.Now()
	p, perm, planKey, cached, err := s.planFor(q)
	s.emitSpan(obs.Event{Event: "plan_resolve", TraceID: traceID,
		Span: scope.NextSpanID(), Parent: querySpan,
		DurUS: time.Since(planStart).Microseconds()})
	if err != nil {
		writeError(w, http.StatusBadRequest, "planning: %v", err)
		return
	}

	// Enter the current generation before pinning the overlay: a compaction
	// rebases the overlay only after every request admitted to the old file
	// has left it, so this snapshot never lacks an op the file lacks. The
	// deferred Done runs after every deferred release below.
	g := s.enter()
	defer g.runs.Done()

	// Pin the live-ingest overlay for the whole run: the query enumerates
	// base file + exactly this snapshot, so mutations applied mid-run do
	// not shift its counts, and the epoch it reports is the one it saw.
	var snap *delta.Snapshot
	if s.store != nil {
		snap = s.store.Snapshot()
	}
	dataEpoch := s.dataEpoch()
	if snap != nil {
		dataEpoch = snap.Epoch()
	}

	// Resume-token redemption: verify the signature, then require the token
	// to have been minted for this exact plan — a checkpoint's cursor and
	// counts are meaningless under any other matching order — and for the
	// CURRENT data epoch: a frontier's settled counts were taken over a
	// graph version, and replaying the remainder over a mutated graph
	// would splice two different answers together.
	var resume *core.Checkpoint
	var resumedFrom string
	if req.ResumeToken != "" {
		payload, err := s.tokens.decode(req.ResumeToken)
		if err != nil {
			s.sm.resumesRejected.Inc()
			writeError(w, http.StatusBadRequest, "invalid resume_token")
			return
		}
		if payload.Plan != planKey {
			s.sm.resumesRejected.Inc()
			writeError(w, http.StatusConflict, "resume_token was minted for a different query plan")
			return
		}
		if payload.Epoch != dataEpoch {
			s.sm.resumesRejected.Inc()
			s.sm.resumesStale.Add(1)
			writeError(w, http.StatusConflict,
				"resume_token is stale: minted at data epoch %d, current epoch is %d; restart the query",
				payload.Epoch, dataEpoch)
			return
		}
		resume = &payload.CP
		resumedFrom = payload.Trace
	}

	// Admission. Cohort-eligible queries (ShareScan on, no resume token,
	// no pending overlay — shared sweeps load windows once for N riders,
	// so they serve only the base graph) bypass the solo pool: their
	// concurrency is bounded by the cohort — CohortMaxRiders riding plus
	// QueueDepth boarding — rather than an engine slot, so N compatible
	// queries share one sweep instead of serializing onto the solo
	// engines' divided buffers. Boarding delay is bounded by the sweep's
	// window cadence and the run context, not the queue-wait deadline.
	// Everything else takes the solo path: bounded queue, bounded wait,
	// per-request deadline.
	attr := &queryAttribution{
		traceID:     traceID,
		scope:       scope,
		querySpan:   querySpan,
		resumedFrom: resumedFrom,
		wantProfile: wantProfile,
		start:       reqStart,
		epoch:       dataEpoch,
	}
	useCohort := g.sched != nil && resume == nil && (snap == nil || snap.Empty())
	var eng *core.Engine // nil while riding the shared sweep
	if useCohort {
		if int(s.cohortInflight.Add(1)) > s.cfg.CohortMaxRiders+s.cfg.QueueDepth {
			s.cohortInflight.Add(-1)
			s.sm.rejectedFull.Inc()
			s.reject(w, "cohort queue full")
			return
		}
		defer s.cohortInflight.Add(-1)
	} else {
		if eng, err = s.admitSolo(r.Context(), g, req, attr); err != nil {
			s.writeRunError(w, r, err)
			return
		}
		defer s.release(g, eng)
	}
	s.sm.active.Add(1)
	defer s.sm.active.Add(-1)

	// The run observes the client's context and the server's base context
	// (cancelled by Close / expired Drain), whichever ends first.
	runCtx, cancelRun := context.WithCancel(r.Context())
	defer cancelRun()
	stop := context.AfterFunc(s.baseCtx, cancelRun)
	defer stop()
	if req.TimeoutMS > 0 {
		var cancelT context.CancelFunc
		runCtx, cancelT = context.WithTimeout(runCtx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancelT()
	}

	spec := core.RunSpec{Plan: p, Resume: resume, Overlay: snap, Scope: scope}

	// run executes the spec: solo on the acquired engine, or as a cohort
	// rider. A bounced rider (ErrNotEligible — the plan is too deep for
	// the equal share of the cohort's deep pool) falls back to a late solo
	// admission in its own generation, under the same queue wait as any
	// solo request, so the client never sees an eligibility error.
	run := func(ctx context.Context, sp core.RunSpec) (*core.Result, error) {
		if eng != nil {
			return eng.RunSpecContext(ctx, sp)
		}
		res, err := g.sched.Run(ctx, sp)
		if err != nil && errors.Is(err, sharedscan.ErrNotEligible) {
			s.sm.cohortFallbacks.Inc()
			solo, aerr := s.admitSolo(ctx, g, req, attr)
			if aerr != nil {
				return nil, aerr
			}
			defer s.release(g, solo)
			return solo.RunSpecContext(ctx, sp)
		}
		return res, err
	}

	if !streaming {
		res, err := run(runCtx, spec)
		probeArmed = false
		s.recordRunOutcome(err, probe)
		s.accountResume(resume, err)
		if err != nil {
			s.settleQuery(attr, q.Name(), 0, "error", err)
			s.writeRunError(w, r, err)
			return
		}
		s.settleQuery(attr, q.Name(), res.Count, "ok", nil)
		writeJSON(w, http.StatusOK, attr.reply(q.Name(), cached, res))
		return
	}
	probeArmed = false // streamEmbeddings settles the probe
	s.streamEmbeddings(w, r, req, q, perm, planKey, cached, spec, probe, run, runCtx, cancelRun, attr)
}

// queryAttribution bundles the per-request observability state threaded
// from admission through the count and streaming paths.
type queryAttribution struct {
	traceID     string
	scope       *obs.Scope
	querySpan   uint64
	resumedFrom string
	wantProfile bool
	start       time.Time
	// queueNS is the time spent waiting for a solo engine: at admission, or
	// after a bounce from the cohort.
	queueNS int64
	// epoch is the data epoch pinned at admission: stamped into resume
	// tokens minted by this run and echoed as the response's DataEpoch.
	epoch uint64
}

// profile returns the cost profile to attach to a response: the engine's
// (when the run finished) or a direct scope snapshot
// (cancelled/failed runs — attribution still settled before the engine
// returned), with the server-side queue wait filled in. Nil unless the
// request asked for a profile.
func (a *queryAttribution) profile(fromRun *obs.CostProfile) *obs.CostProfile {
	if !a.wantProfile {
		return nil
	}
	var pr obs.CostProfile
	if fromRun != nil {
		pr = *fromRun
	} else {
		pr = a.scope.Profile()
	}
	pr.QueueNS = a.queueNS
	return &pr
}

// reply is the answer of a finished run: the count-mode reply, and with Rows
// set the trailer of a completed stream.
func (a *queryAttribution) reply(query string, cached bool, res *core.Result) QueryResponse {
	return QueryResponse{
		Query:            query,
		Count:            res.Count,
		Internal:         res.Internal,
		External:         res.External,
		PlanCached:       cached,
		PrepNS:           res.PrepTime.Nanoseconds(),
		ExecNS:           res.ExecTime.Nanoseconds(),
		QueueNS:          a.queueNS,
		PhysicalReads:    res.IO.PhysicalReads,
		Resumed:          res.Resumed,
		SharedPages:      a.scope.SharedPages.Load(),
		DataEpoch:        a.epoch,
		TraceID:          a.traceID,
		ResumedFromTrace: a.resumedFrom,
		Profile:          a.profile(res.Profile),
		Done:             true,
	}
}

// settleQuery closes out one request's observability: emits the query_end
// span and records the query in the slow log with its attributed costs.
func (s *Server) settleQuery(attr *queryAttribution, query string, rows uint64, status string, err error) {
	dur := time.Since(attr.start)
	s.emitSpan(obs.Event{Event: "query_end", TraceID: attr.traceID,
		Span: attr.querySpan, DurUS: dur.Microseconds()})
	e := obs.SlowQueryEntry{
		TraceID:   attr.traceID,
		Query:     query,
		Start:     attr.start,
		DurNS:     dur.Nanoseconds(),
		PagesRead: attr.scope.PagesRead.Load(),
		IOWaitNS:  int64(attr.scope.IOWaitNanos.Load()),
		Windows:   attr.scope.Windows.Load(),
		Rows:      rows,
		Status:    status,
	}
	if err != nil {
		e.Err = err.Error()
	}
	s.slowlog.Observe(e)
}

// emitSpan writes one server-side span event to the shared tracer, if any.
func (s *Server) emitSpan(e obs.Event) {
	if s.trc != nil {
		s.trc.Emit(e)
	}
}

// recordRunOutcome feeds one settled run back to the breaker: a success is
// a healthy outcome, a transient storage fault is device trouble.
// Cancellations and corruption say nothing about device health — neutral,
// though a probe slot still has to be released.
func (s *Server) recordRunOutcome(err error, probe bool) {
	switch {
	case err == nil || storage.IsTransient(err):
		s.br.record(err != nil, probe)
	default:
		if probe {
			s.br.cancelProbe()
		}
	}
}

// accountResume classifies a redeemed token once its run settles: the
// engine rejecting the checkpoint (ErrBadCheckpoint) is a rejected resume;
// anything else means the checkpoint was accepted and replayed.
func (s *Server) accountResume(resume *core.Checkpoint, err error) {
	if resume == nil {
		return
	}
	if errors.Is(err, core.ErrBadCheckpoint) {
		s.sm.resumesRejected.Inc()
		return
	}
	s.sm.resumesOK.Inc()
}

// streamEmbeddings runs the query and writes one NDJSON line per embedding
// ([v0,v1,...], query vertex i -> data vertex), then a QueryResponse
// trailer. After every completed level-1 window it interleaves a
// {"resume_token": ...} record — an opaque signed checkpoint the client
// can resubmit to continue the stream after a fault, a disconnect, or a
// row-limit truncation. The stream is bounded by the row limit; hitting it
// (or losing the client) cancels the run through its context, which
// releases every buffer pin and returns the engine clean.
//
// Rows reach the response a batch at a time (rowStream.onRows) and are
// flushed to the client together, not one write(2) each: with the first
// batch — a run's first is its first row alone — and with any batch written
// streamFlushInterval or more after the previous flush. Resume-token lines
// and the final line flush at once, with any rows still waiting, so none
// waits longer than one level-1 window. A lost client
// cancels the run through the request context, or at the first write after
// the flush that failed.
func (s *Server) streamEmbeddings(w http.ResponseWriter, r *http.Request, req QueryRequest,
	q *graph.Query, perm []int, planKey string, cached bool,
	spec core.RunSpec, probe bool,
	run func(context.Context, core.RunSpec) (*core.Result, error),
	runCtx context.Context, cancelRun context.CancelFunc, attr *queryAttribution) {

	limit := s.cfg.RowLimit
	if req.Limit > 0 && req.Limit < limit {
		limit = req.Limit
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	rs := &rowStream{sm: s.sm, w: w, perm: perm, limit: uint64(limit), cancelRun: cancelRun}
	rs.flusher, _ = w.(http.Flusher)
	spec.OnRows = rs.onRows

	// Checkpoints arrive from the run's orchestrator at level-1 window
	// boundaries, where counts are settled, deeper windows are closed and
	// every row of the window has been through onRows. lastToken is retained
	// even when the record is not written (truncation, disconnect) so error
	// lines and truncated trailers can still hand the client a restart
	// point. A window that dropped a row never gets here: the drop follows
	// the cancel, and a cancelled window fails its run instead of settling.
	var lastToken string
	spec.OnCheckpoint = func(cp core.Checkpoint) {
		tok := s.tokens.encode(resumePayload{V: resumeTokenVersion, Plan: planKey, CP: cp,
			Trace: attr.traceID, Epoch: attr.epoch})
		rs.mu.Lock()
		defer rs.mu.Unlock()
		lastToken = tok
		if rs.truncated || rs.clientGone {
			return
		}
		line, _ := json.Marshal(resumeTokenLine{ResumeToken: tok})
		if _, err := w.Write(append(line, '\n')); err != nil {
			rs.lostClient()
			return
		}
		rs.flush()
	}

	res, err := run(runCtx, spec)
	s.recordRunOutcome(err, probe)
	s.accountResume(spec.Resume, err)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rows, truncated := rs.rows, rs.truncated
	switch {
	case err == nil:
		// Not truncated: the cut cancels the run before its window can
		// settle, so a run that reaches the limit fails with the context's
		// error even when the limit is the count.
		s.settleQuery(attr, q.Name(), rows, "ok", nil)
		trailer := attr.reply(q.Name(), cached, res)
		trailer.Rows = rows
		b, _ := json.Marshal(trailer)
		_, _ = w.Write(append(b, '\n'))
	case truncated:
		s.settleQuery(attr, q.Name(), rows, "truncated", nil)
		trailer := QueryResponse{Query: q.Name(), Rows: rows, Truncated: true, PlanCached: cached,
			QueueNS: attr.queueNS, ResumeToken: lastToken, DataEpoch: attr.epoch,
			TraceID: attr.traceID, ResumedFromTrace: attr.resumedFrom,
			Profile: attr.profile(nil), Done: true}
		b, _ := json.Marshal(trailer)
		_, _ = w.Write(append(b, '\n'))
	case rs.clientGone || r.Context().Err() != nil:
		// Nobody is listening; nothing to write. If the disconnect surfaced
		// through the request context rather than a failed write, it has not
		// been counted yet.
		s.settleQuery(attr, q.Name(), rows, "error", err)
		if !rs.clientGone {
			s.sm.disconnects.Inc()
		}
	default:
		// Status already went out; surface the failure as a final line, with
		// the last checkpoint so the client can resume instead of restart.
		s.settleQuery(attr, q.Name(), rows, "error", err)
		b, _ := json.Marshal(errorResponse{Error: err.Error(), ResumeToken: lastToken})
		_, _ = w.Write(append(b, '\n'))
	}
	rs.flush()
}

// streamFlushInterval is how long after a flush further streamed rows are
// held back to go out together (see streamEmbeddings).
const streamFlushInterval = 2 * time.Millisecond

// rowStream is the response side of one embeddings stream: what the run's
// workers, its orchestrator (checkpoints) and the handler share. mu guards
// the writer and every field below it.
type rowStream struct {
	sm        *serverMetrics
	w         http.ResponseWriter
	flusher   http.Flusher // nil when the writer cannot flush
	perm      []int        // request labeling: query vertex v's data vertex is at perm[v] of a row
	limit     uint64
	cancelRun context.CancelFunc

	// stopped is truncated || clientGone, set with them under mu and read by
	// the workers without it: a batch that arrives after either is dropped
	// before it is encoded.
	stopped atomic.Bool

	mu         sync.Mutex
	rows       uint64
	lastFlush  time.Time // zero until the first batch goes out
	unflushed  bool
	truncated  bool
	clientGone bool
}

// lineBufs recycles the buffers batches are encoded into. A new one holds a
// full batch of a small query outright; anything wider grows it once.
var lineBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// onRows is the run's row hook (core.RunSpec.OnRows): it encodes a batch on
// the worker that found it, relabeled to the request's vertex numbering, and
// takes the stream's lock once for what has to be serial — the cut at the row
// limit, the write, the flush rule and the counters. Nothing here costs a
// row an allocation, a lock or a look at the clock.
func (rs *rowStream) onRows(rows []graph.VertexID, width int) {
	if rs.stopped.Load() {
		return
	}
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	line := (*buf)[:0]
	for row := rows; len(row) > 0; row = row[width:] {
		line = append(line, '[')
		for v, at := range rs.perm {
			if v > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendUint(line, uint64(row[at]), 10)
		}
		line = append(line, ']', '\n')
	}
	*buf = line

	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.stopped.Load() {
		return // stopped while this batch was being encoded
	}
	n := uint64(len(rows) / width)
	last := n >= rs.limit-rs.rows // the batch reaches the limit: cut it there
	if last {
		n = rs.limit - rs.rows
		end := 0
		for i := uint64(0); i < n; i++ {
			end += bytes.IndexByte(line[end:], '\n') + 1
		}
		line = line[:end]
	}
	if _, err := rs.w.Write(line); err != nil {
		rs.lostClient()
		return
	}
	rs.rows += n
	rs.sm.rowsStreamed.Add(n)
	rs.unflushed = true
	if time.Since(rs.lastFlush) >= streamFlushInterval {
		rs.flush()
	}
	if last {
		rs.truncated = true
		rs.stopped.Store(true)
		rs.cancelRun()
	}
}

// flush pushes what has been written to the client. Callers hold mu.
func (rs *rowStream) flush() {
	if rs.flusher != nil {
		rs.flusher.Flush()
	}
	rs.lastFlush, rs.unflushed = time.Now(), false
}

// lostClient books a write the client no longer took and cancels the run.
// Callers hold mu.
func (rs *rowStream) lostClient() {
	rs.clientGone = true
	rs.stopped.Store(true)
	rs.sm.disconnects.Inc()
	rs.cancelRun()
}

// writeRunError maps admission and run failures onto HTTP statuses: client
// cancellations produce no body (the peer is gone), a request the solo pool
// refuses — its queue full, or no engine free within its queue wait, bounced
// riders included — is 429 with Retry-After, deadline hits are 504,
// a rejected resume checkpoint is 409, storage corruption and I/O trouble
// are 500 with the typed message.
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case r.Context().Err() != nil:
		s.sm.disconnects.Inc()
	case errors.Is(err, errQueueFull), errors.Is(err, errQueueWait):
		s.reject(w, err.Error())
	case errors.Is(err, core.ErrBadCheckpoint):
		writeError(w, http.StatusConflict, "resume rejected: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "run timed out: %v", err)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "run cancelled: %v", err)
	default:
		var ce *storage.CorruptPageError
		if errors.As(err, &ce) {
			writeError(w, http.StatusInternalServerError, "data corruption: %v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "run failed: %v", err)
	}
}

// StatsResponse is the GET /stats payload.
type StatsResponse struct {
	Vertices int    `json:"vertices"`
	Edges    uint64 `json:"edges"`
	Pages    int    `json:"pages"`
	PageSize int    `json:"page_size"`
	// Engines is the configured pool size, the cohort engine included;
	// EnginesIdle counts the pool engines of the current generation not
	// running a query.
	Engines       int             `json:"engines"`
	EnginesIdle   int             `json:"engines_idle"`
	QueueDepth    int             `json:"queue_depth"`
	QueueCapacity int             `json:"queue_capacity"`
	Requests      uint64          `json:"requests"`
	Rejected      uint64          `json:"rejected"`
	RowsStreamed  uint64          `json:"rows_streamed"`
	PlanCache     plan.CacheStats `json:"plan_cache"`
	Draining      bool            `json:"draining"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	// I/O-pipeline counters, fleet-wide through the common registry:
	// orchestrator time blocked on window loads and the pools' run
	// coalescing activity (settled at level-1 window boundaries).
	IOWaitNS       uint64 `json:"io_wait_ns"`
	CoalescedRuns  uint64 `json:"coalesced_runs"`
	CoalescedPages uint64 `json:"coalesced_pages"`
	// Compressed-storage counters: compressed adjacency records/bytes
	// loaded into windows (fleet-wide via the shared registry).
	CompressedRecords uint64 `json:"compressed_records"`
	CompressedBytes   uint64 `json:"compressed_bytes"`
	// Resilience counters: checkpoint/resume activity and the pool circuit
	// breaker's state machine.
	CheckpointsTaken uint64 `json:"checkpoints_taken"`
	ResumesOK        uint64 `json:"resumes_ok"`
	ResumesRejected  uint64 `json:"resumes_rejected"`
	BreakerState     string `json:"breaker_state"`
	BreakerTrips     uint64 `json:"breaker_trips"`
	BreakerRejects   uint64 `json:"breaker_rejects"`
	// Build identity, stamped via -ldflags (see Makefile) with a
	// debug.ReadBuildInfo fallback.
	BuildVersion string `json:"build_version"`
	BuildCommit  string `json:"build_commit,omitempty"`
	// Slow-query log summary: counts plus the heaviest queries by
	// attributed pages read. The full recent ring is at GET /debug/slowlog.
	SlowLog obs.SlowLogSnapshot `json:"slow_log"`
	// ShareScan reports whether shared-scan cohort execution is enabled;
	// Cohort carries the live cohort counters when it is.
	ShareScan bool              `json:"share_scan"`
	Cohort    *sharedscan.Stats `json:"cohort,omitempty"`
	// DataEpoch is the current data epoch; Ingest carries the live-ingest
	// counters when the server is mutable.
	DataEpoch uint64       `json:"data_epoch"`
	Ingest    *IngestStats `json:"ingest,omitempty"`
}

// IngestStats is the live-ingest section of GET /stats.
type IngestStats struct {
	Batches  uint64 `json:"batches"`
	Ops      uint64 `json:"ops"`
	Rejected uint64 `json:"rejected"`
	// DeltaVertices/DeltaAdds/DeltaDels are the overlay's pending
	// footprint awaiting compaction.
	DeltaVertices int    `json:"delta_vertices"`
	DeltaAdds     uint64 `json:"delta_adds"`
	DeltaDels     uint64 `json:"delta_dels"`
	Compactions   uint64 `json:"compactions"`
	CompactErrors uint64 `json:"compact_errors"`
	Compacting    bool   `json:"compacting"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	g := s.current()
	brState, brTrips := s.br.snapshot()
	buildVersion, buildCommit := buildinfo.Info()
	// Every engine counts into the registry, so its counters are fleet-wide.
	counters := s.reg.Snapshot().Counters
	slowSummary := s.slowlog.Snapshot()
	slowSummary.Recent = nil // summary only; ring served by /debug/slowlog
	engines := s.cfg.Engines
	var cohort *sharedscan.Stats
	if g.sched != nil {
		engines++
		st := g.sched.Stats()
		cohort = &st
	}
	var ingest *IngestStats
	if s.store != nil {
		snap := s.store.Snapshot()
		ingest = &IngestStats{
			Batches:       s.store.Batches(),
			Ops:           s.store.Ops(),
			Rejected:      s.store.Rejected(),
			DeltaVertices: snap.Len(),
			DeltaAdds:     snap.Adds(),
			DeltaDels:     snap.Dels(),
			Compactions:   s.compactions.Load(),
			CompactErrors: s.compactErrors.Load(),
			Compacting:    s.compacting.Load(),
		}
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Vertices:       g.db.NumVertices(),
		Edges:          g.db.NumEdges(),
		Pages:          g.db.NumPages(),
		PageSize:       g.db.PageSize(),
		Engines:        engines,
		EnginesIdle:    len(g.slots),
		QueueDepth:     int(s.waiters.Load()),
		QueueCapacity:  s.cfg.QueueDepth,
		Requests:       s.sm.requests.Value(),
		Rejected:       s.sm.rejectedFull.Value() + s.sm.rejectedWait.Value(),
		RowsStreamed:   s.sm.rowsStreamed.Value(),
		PlanCache:      s.cache.Stats(),
		Draining:       s.draining.Load(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		IOWaitNS:       counters["dualsim_io_wait_nanos_total"],
		CoalescedRuns:  counters["dualsim_coalesced_runs_total"],
		CoalescedPages: counters["dualsim_coalesced_pages_total"],

		CompressedRecords: counters["dualsim_compressed_records_total"],
		CompressedBytes:   counters["dualsim_compressed_bytes_total"],

		CheckpointsTaken: counters["dualsim_checkpoints_taken_total"],
		ResumesOK:        s.sm.resumesOK.Value(),
		ResumesRejected:  s.sm.resumesRejected.Value(),
		BreakerState:     breakerStateName(brState),
		BreakerTrips:     brTrips,
		BreakerRejects:   s.sm.breakerRejects.Value(),
		BuildVersion:     buildVersion,
		BuildCommit:      buildCommit,
		SlowLog:          slowSummary,
		ShareScan:        g.sched != nil,
		Cohort:           cohort,
		DataEpoch:        s.dataEpoch(),
		Ingest:           ingest,
	})
}

// handleSlowlog serves the full slow-query log: the recent ring (newest
// first) of queries at/over the configured duration threshold plus the
// all-time top-K by attributed pages read.
func (s *Server) handleSlowlog(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.slowlog.Snapshot())
}
