package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// buildCompleteDB builds a database of the complete graph K_n (every query
// count has a closed form, and triangles abound for streaming tests).
func buildCompleteDB(t *testing.T, n, pageSize int) *storage.DB {
	t.Helper()
	g := kn(n)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.db")
	if _, err := storage.BuildFromGraph(path, g, storage.BuildOptions{PageSize: pageSize, TempDir: dir}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func newTestServer(t *testing.T, db *storage.DB, cfg Config) *Server {
	t.Helper()
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func postQuery(t *testing.T, addr string, req QueryRequest) (*http.Response, error) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return http.Post("http://"+addr+"/query", "application/json", bytes.NewReader(body))
}

func decodeQueryResponse(t *testing.T, resp *http.Response) QueryResponse {
	t.Helper()
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return qr
}

// TestSaturationQueueReject drives the saturation -> queue -> reject path:
// with the single engine held, a request first waits out its queue deadline
// (429), then with the queue occupied a second request is rejected
// immediately (429 + Retry-After).
func TestSaturationQueueReject(t *testing.T) {
	db := buildCompleteDB(t, 8, 256)
	s := newTestServer(t, db, Config{
		Engines:    1,
		QueueDepth: 1,
		QueueWait:  5 * time.Second,
		Engine:     core.Options{Threads: 1, BufferFrames: 64},
	})

	// Hold the only engine.
	eng, err := s.acquire(context.Background(), s.current())
	if err != nil {
		t.Fatal(err)
	}

	// Deadline path: empty queue, but no engine within queue_wait_ms.
	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1", QueueWaitMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("deadline path: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("deadline path: missing Retry-After")
	}

	// Queue-full path: one long waiter occupies the queue; the next request
	// is rejected immediately.
	waiterDone := make(chan QueryResponse, 1)
	go func() {
		resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1"})
		if err != nil {
			t.Error(err)
			waiterDone <- QueryResponse{}
			return
		}
		defer resp.Body.Close()
		var qr QueryResponse
		json.NewDecoder(resp.Body).Decode(&qr)
		waiterDone <- qr
	}()
	// Wait for the waiter to register.
	deadline := time.Now().Add(2 * time.Second)
	for s.waiters.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.waiters.Load() == 0 {
		t.Fatal("waiter never queued")
	}
	resp2, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1"})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full path: status %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("queue-full path: missing Retry-After")
	}

	// Release the engine: the queued waiter must complete correctly.
	s.release(s.current(), eng)
	qr := <-waiterDone
	if qr.Count != 56 { // C(8,3)
		t.Errorf("queued waiter count = %d, want 56", qr.Count)
	}

	if got := s.sm.rejectedFull.Value(); got != 1 {
		t.Errorf("rejected_queue_full = %d, want 1", got)
	}
	if got := s.sm.rejectedWait.Value(); got != 1 {
		t.Errorf("rejected_deadline = %d, want 1", got)
	}
}

// readNDJSON consumes an embeddings stream: rows until the trailer object.
func readNDJSON(t *testing.T, body io.Reader) (rows [][]graph.VertexID, trailer QueryResponse) {
	t.Helper()
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte("[")) {
			var row []graph.VertexID
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatalf("bad row %q: %v", line, err)
			}
			rows = append(rows, row)
			continue
		}
		if err := json.Unmarshal(line, &trailer); err != nil {
			t.Fatalf("bad trailer %q: %v", line, err)
		}
	}
	return rows, trailer
}

// TestServerRowLimitClamp: the server-enforced cap applies even when the
// request asks for more.
func TestServerRowLimitClamp(t *testing.T) {
	db := buildCompleteDB(t, 8, 256)
	s := newTestServer(t, db, Config{
		Engines:  1,
		RowLimit: 7,
		Engine:   core.Options{Threads: 1, BufferFrames: 64},
	})
	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1", Mode: "embeddings", Limit: 100000})
	if err != nil {
		t.Fatal(err)
	}
	rows, trailer := readNDJSON(t, resp.Body)
	resp.Body.Close()
	if len(rows) != 7 || !trailer.Truncated {
		t.Fatalf("rows=%d trailer=%+v", len(rows), trailer)
	}
}

// TestClientDisconnectCancelsRun: a client that walks away mid-stream
// cancels the run through its context; the engine comes back to the pool
// with no pinned frames and the disconnect is counted.
func TestClientDisconnectCancelsRun(t *testing.T) {
	db := buildCompleteDB(t, 64, 256) // 41664 triangles
	s := newTestServer(t, db, Config{
		Engines:  1,
		RowLimit: 1_000_000,
		// A tiny buffer plus per-page latency keeps the run alive for seconds,
		// far longer than the client sticks around.
		Engine: core.Options{Threads: 1, BufferFrames: 8, PerPageLatency: 10 * time.Millisecond},
	})

	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1", Mode: "embeddings"})
	if err != nil {
		t.Fatal(err)
	}
	// Read a couple of rows to prove the stream is live, then vanish.
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("reading row %d: %v", i, err)
		}
	}
	resp.Body.Close()

	// The engine must return to the pool, clean.
	select {
	case eng := <-s.current().slots:
		if pins := eng.PinnedFrames(); pins != 0 {
			t.Errorf("engine returned with %d pinned frames", pins)
		}
		s.current().slots <- eng
	case <-time.After(10 * time.Second):
		t.Fatal("engine never returned to the pool after client disconnect")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.sm.disconnects.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if s.sm.disconnects.Value() == 0 {
		t.Error("client disconnect not counted")
	}
}

// TestDrainCompletesInflight: Drain lets the running query finish (correct
// count), rejects new work with 503, and returns cleanly.
func TestDrainCompletesInflight(t *testing.T) {
	db := buildCompleteDB(t, 12, 256) // 220 triangles
	s := newTestServer(t, db, Config{
		Engines: 1,
		Engine:  core.Options{Threads: 1, BufferFrames: 64, PerPageLatency: 5 * time.Millisecond},
	})

	inflightDone := make(chan QueryResponse, 1)
	go func() {
		resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1"})
		if err != nil {
			t.Error(err)
			inflightDone <- QueryResponse{}
			return
		}
		defer resp.Body.Close()
		var qr QueryResponse
		json.NewDecoder(resp.Body).Decode(&qr)
		inflightDone <- qr
	}()

	// Wait for the request to be on an engine.
	deadline := time.Now().Add(5 * time.Second)
	for s.sm.active.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if s.sm.active.Value() == 0 {
		t.Fatal("request never became active")
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// New work is refused while draining.
	for s.draining.Load() == false && time.Now().Before(deadline) {
		time.Sleep(1 * time.Millisecond)
	}
	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1"})
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		code := resp.StatusCode
		resp.Body.Close()
		if code != http.StatusServiceUnavailable {
			t.Errorf("during drain: status %d, want 503", code)
		}
	} // a connection error is also acceptable once the listener closes

	qr := <-inflightDone
	if qr.Count != 220 {
		t.Errorf("in-flight query count = %d, want 220", qr.Count)
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain: %v", err)
	}
}

// TestExpiredDrainCancelsRuns: a drain deadline that passes cancels the
// in-flight run through the base context instead of waiting forever.
func TestExpiredDrainCancelsRuns(t *testing.T) {
	db := buildCompleteDB(t, 24, 256)
	s := newTestServer(t, db, Config{
		Engines: 1,
		Engine:  core.Options{Threads: 1, BufferFrames: 128, PerPageLatency: 20 * time.Millisecond},
	})

	done := make(chan int, 1)
	go func() {
		resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1"})
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.sm.active.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(ctx)
	if err == nil {
		t.Error("expired Drain returned nil")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("expired Drain took %v", took)
	}
	if code := <-done; code == http.StatusOK {
		t.Error("cancelled run still returned 200")
	}
}

// TestBadRequests covers the 400 family, and the 413 of a body past its
// bound — a valid query behind more whitespace than that — which names it.
func TestBadRequests(t *testing.T) {
	db := buildCompleteDB(t, 6, 256)
	s := newTestServer(t, db, Config{Engines: 1, Engine: core.Options{Threads: 1, BufferFrames: 64}})
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"empty body", "", http.StatusBadRequest},
		{"no query", `{}`, http.StatusBadRequest},
		{"bad spec", `{"query":"zzz"}`, http.StatusBadRequest},
		{"disconnected", `{"query":"0-1,2-3"}`, http.StatusBadRequest},
		{"bad mode", `{"query":"q1","mode":"explode"}`, http.StatusBadRequest},
		{"padded past the bound", strings.Repeat(" ", maxQueryBody) + `{"query":"q1"}`, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post("http://"+s.Addr()+"/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.want, b)
		}
		if tc.want == http.StatusRequestEntityTooLarge && !strings.Contains(string(b), strconv.Itoa(maxQueryBody)) {
			t.Errorf("%s: %s does not name the %d-byte bound", tc.name, b, maxQueryBody)
		}
	}
}

// flushLog is a ResponseWriter that records how much of the body had been
// written at each Flush, and when the first one happened.
type flushLog struct {
	header  http.Header
	body    bytes.Buffer
	flushed []int // body length at each flush
	first   time.Time
}

func (f *flushLog) Header() http.Header         { return f.header }
func (f *flushLog) WriteHeader(int)             {}
func (f *flushLog) Write(b []byte) (int, error) { return f.body.Write(b) }
func (f *flushLog) Flush() {
	if len(f.flushed) == 0 {
		f.first = time.Now()
	}
	f.flushed = append(f.flushed, f.body.Len())
}

// TestStreamCoalescedFlushes drives an embeddings stream through a recording
// ResponseWriter. Rows share flushes instead of paying one each, yet nothing
// a client waits for is held back: the first row is flushed alone while the
// latency-injected run still has most of its time to go, every resume-token
// line is flushed the moment it is written, and the trailer ends the stream
// flushed. Buffering loses and repeats nothing: every triangle arrives once.
func TestStreamCoalescedFlushes(t *testing.T) {
	db := buildCompleteDB(t, 32, 256) // 4960 triangles
	s, err := New(db, Config{
		Engines:  1,
		RowLimit: 1_000_000,
		// A small buffer makes several level-1 windows (a token line each);
		// the per-page latency stretches the run well past the first row.
		Engine: core.Options{Threads: 1, BufferFrames: 10, PerPageLatency: 500 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body, _ := json.Marshal(QueryRequest{Query: "q1", Mode: "embeddings"})
	req, err := http.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rec := &flushLog{header: http.Header{}}
	s.Handler().ServeHTTP(rec, req)
	end := time.Now()

	rows, tokens, offset := 0, 0, 0
	seen := make(map[string]bool)
	flushedAt := make(map[int]bool, len(rec.flushed))
	for _, n := range rec.flushed {
		flushedAt[n] = true
	}
	lines := bytes.SplitAfter(rec.body.Bytes(), []byte("\n"))
	for i, line := range lines {
		offset += len(line)
		switch {
		case len(line) == 0:
		case line[0] == '[':
			rows++
			if seen[string(line)] {
				t.Errorf("row %s streamed twice", line)
			}
			seen[string(line)] = true
			if rows == 1 && (len(rec.flushed) == 0 || rec.flushed[0] != offset) {
				t.Errorf("first flush at byte %v, first row ends at %d", rec.flushed, offset)
			}
		case bytes.Contains(line, []byte(`"done":true`)):
			if i != len(lines)-2 || !flushedAt[offset] {
				t.Errorf("trailer at line %d of %d, flushed=%v", i, len(lines), flushedAt[offset])
			}
		case bytes.Contains(line, []byte(`"resume_token"`)):
			tokens++
			if !flushedAt[offset] {
				t.Errorf("resume-token line ending at byte %d was not flushed when written", offset)
			}
		default:
			t.Fatalf("unexpected line %q", line)
		}
	}
	if rows != 4960 || tokens < 2 {
		t.Fatalf("rows=%d tokens=%d", rows, tokens)
	}
	if len(rec.flushed) > rows/4 {
		t.Errorf("%d flushes for %d rows: not coalesced", len(rec.flushed), rows)
	}
	if ahead := end.Sub(rec.first); ahead < 20*time.Millisecond {
		t.Errorf("first row flushed only %v before the run ended", ahead)
	}
}
