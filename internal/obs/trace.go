package obs

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one structured trace record. The engine emits a fixed
// vocabulary of lifecycle events per run and per window:
//
//	run_start     {levels, frames}
//	window_open   {level, window, lo, hi, pages}
//	window_pinned {level, window, pages, dur_us}   // I/O wait to pin the window (last level: of the streamed pass)
//	internal_enum {level, window, verts}           // internal area dispatched
//	external_enum {level, window, verts, dur_us}   // last-level pass streamed and matched
//	window_close  {level, window, dur_us}
//	run_end       {count, dur_us}
//
// plus retry-layer recovery events (retry_retry, retry_crc_reread,
// retry_recovered, retry_exhausted) carrying {page, attempt} when the
// resilient read path is active. Zero-valued fields are omitted from the
// JSON encoding; Level and Window are 1-based.
//
// When a run executes under an attribution Scope the events additionally
// form a span hierarchy — query (run_start/run_end) → plan (plan_resolve)
// → level (level_start/level_end) → window (window_open/window_close) —
// identified by Span/Parent IDs unique within the query's TraceID.
type Event struct {
	TS      string `json:"ts,omitempty"` // RFC3339Nano, stamped by the tracer
	Event   string `json:"event"`
	TraceID string `json:"trace,omitempty"`  // query-scoped trace ID (minted at HTTP admission, or by the run)
	Span    uint64 `json:"span,omitempty"`   // span ID, unique within the trace
	Parent  uint64 `json:"parent,omitempty"` // parent span ID (0 = root)
	Level   int    `json:"level,omitempty"`
	Window  int    `json:"window,omitempty"`
	Lo      uint64 `json:"lo,omitempty"`
	Hi      uint64 `json:"hi,omitempty"`
	Pages   int    `json:"pages,omitempty"`
	Verts   int    `json:"verts,omitempty"`
	Levels  int    `json:"levels,omitempty"`
	Frames  int    `json:"frames,omitempty"`
	Count   uint64 `json:"count,omitempty"`
	Page    int64  `json:"page,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	DurUS   int64  `json:"dur_us,omitempty"`
}

// Tracer receives lifecycle events. Implementations must be safe for
// concurrent use: the orchestrator emits window events while I/O workers
// may emit retry events. A nil Tracer means tracing is disabled; emit
// sites guard on nil so the disabled path costs one pointer comparison.
type Tracer interface {
	Emit(e Event)
}

// JSONLTracer writes each event as one JSON line. Safe for concurrent use.
// Writes are buffered; callers that need events durable (a trace file, a
// draining server) must call Flush or Close, which the engine and server
// do on shutdown so the final spans of in-flight queries are never lost.
type JSONLTracer struct {
	mu  sync.Mutex
	w   io.Writer // underlying writer, for sync-through on Flush
	bw  *bufio.Writer
	enc *json.Encoder
	now func() time.Time // test seam
}

// NewJSONLTracer returns a tracer writing JSONL to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	bw := bufio.NewWriterSize(w, 16<<10)
	return &JSONLTracer{w: w, bw: bw, enc: json.NewEncoder(bw), now: time.Now}
}

// Emit stamps and writes one event. Encoding errors are dropped: tracing
// must never fail a run.
func (t *JSONLTracer) Emit(e Event) {
	if e.TS == "" {
		e.TS = t.now().UTC().Format(time.RFC3339Nano)
	}
	t.mu.Lock()
	_ = t.enc.Encode(e)
	t.mu.Unlock()
}

// Flush drains buffered events to the underlying writer and, if that
// writer exposes its own Flush or Sync, pushes them through it too.
func (t *JSONLTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.bw.Flush()
	if f, ok := t.w.(Flusher); ok {
		if ferr := f.Flush(); err == nil {
			err = ferr
		}
	} else if s, ok := t.w.(interface{ Sync() error }); ok {
		if serr := s.Sync(); err == nil {
			err = serr
		}
	}
	return err
}

// Close flushes the tracer. It does not close the underlying writer, whose
// lifetime the caller owns; Close is idempotent and safe to call from both
// an Engine.Close and a server drain sharing one tracer.
func (t *JSONLTracer) Close() error { return t.Flush() }

// Flusher is implemented by tracers whose events are buffered. Engine
// close and server drain flush any Tracer implementing it.
type Flusher interface {
	Flush() error
}

// NewTraceID returns a 16-hex-character random trace ID, minted once per
// query at HTTP admission (or per profiled CLI run).
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a timestamp: uniqueness-best-effort beats failing.
		return time.Now().UTC().Format("20060102T150405.000000000")
	}
	return hex.EncodeToString(b[:])
}
