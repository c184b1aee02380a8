package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/faultdb"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// clique4Spec is the 4-clique as an edge list (small enough to canonicalize,
// so it shares the plan cache and resume-token plan keys across requests).
const clique4Spec = "0-1,0-2,0-3,1-2,1-3,2-3"

// newFaultServer is newTestServer over an arbitrary core.Database (a
// faultdb wrapper in every test here).
func newFaultServer(t *testing.T, db core.Database, cfg Config, br ...breakerConfig) *Server {
	t.Helper()
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range br { // a test's own breaker tuning, before any request
		s.br = newBreaker(c)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// fastFaultTolerant is the engine template the resilience tests share: the
// read retry layer with a budget of maxRetries and no real sleeping.
func fastFaultTolerant(maxRetries int) core.Options {
	return core.Options{
		Threads:      1,
		BufferFrames: 8,
		Retry: &storage.RetryPolicy{
			MaxRetries: maxRetries,
			CRCRetries: 2,
			Sleep:      func(time.Duration) {},
		},
	}
}

// streamResult is one parsed NDJSON exchange.
type streamResult struct {
	rows      [][]graph.VertexID
	lastToken string // most recent resume_token seen on any line
	errMsg    string // error line, if the stream died
	trailer   QueryResponse
	done      bool // a Done trailer arrived
}

// readResumableStream consumes an embeddings stream that may contain
// interleaved {"resume_token": ...} records and may end in an error line
// instead of a trailer. It reports a malformed line with t.Errorf, so that
// client goroutines may call it too.
func readResumableStream(t *testing.T, body io.Reader) streamResult {
	t.Helper()
	var res streamResult
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == '[' {
			var row []graph.VertexID
			if err := json.Unmarshal(line, &row); err != nil {
				t.Errorf("bad row %q: %v", line, err)
			}
			res.rows = append(res.rows, row)
			continue
		}
		var obj struct {
			Error       string `json:"error"`
			ResumeToken string `json:"resume_token"`
			QueryResponse
		}
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Errorf("bad object line %q: %v", line, err)
		}
		if obj.ResumeToken != "" {
			res.lastToken = obj.ResumeToken
		}
		if obj.Error != "" {
			res.errMsg = obj.Error
		}
		if obj.Done {
			res.trailer = obj.QueryResponse
			res.trailer.ResumeToken = obj.ResumeToken
			res.done = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Errorf("reading stream: %v", err)
	}
	return res
}

// countQuery posts a count-mode query and requires HTTP 200.
func countQuery(t *testing.T, addr, spec string) QueryResponse {
	t.Helper()
	resp, err := postQuery(t, addr, QueryRequest{Query: spec})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("count query %q: status %d: %s", spec, resp.StatusCode, b)
	}
	return decodeQueryResponse(t, resp)
}

// metricValue scrapes one flat metric from GET /metrics.
func metricValue(t *testing.T, addr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

func getStats(t *testing.T, addr string) StatsResponse {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// rowKey identifies an embedding row for at-least-once dedup.
func rowKey(row []graph.VertexID) string { return fmt.Sprint(row) }

// resumeToCompletion drives a (possibly faulted) stream to its Done
// trailer: resubmit with the latest resume token until the run finishes.
// Returns the union of unique rows across attempts and the final trailer.
func resumeToCompletion(t *testing.T, addr, spec string, first streamResult, maxAttempts int,
	heal func(attempt int)) (map[string]struct{}, QueryResponse, int) {
	t.Helper()
	unique := make(map[string]struct{})
	for _, row := range first.rows {
		unique[rowKey(row)] = struct{}{}
	}
	cur := first
	attempts := 0
	for !cur.done {
		attempts++
		if attempts > maxAttempts {
			t.Fatalf("stream for %q did not finish within %d resume attempts (last error: %s)",
				spec, maxAttempts, cur.errMsg)
		}
		if heal != nil {
			heal(attempts)
		}
		tok := cur.lastToken
		resp, err := postQuery(t, addr, QueryRequest{Query: spec, Mode: "embeddings", ResumeToken: tok})
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("resume attempt %d for %q: status %d: %s", attempts, spec, resp.StatusCode, b)
		}
		next := readResumableStream(t, resp.Body)
		resp.Body.Close()
		for _, row := range next.rows {
			unique[rowKey(row)] = struct{}{}
		}
		// Progress may stall on one attempt (a fault before the next
		// checkpoint), but the token frontier never moves backwards.
		if next.lastToken == "" {
			next.lastToken = tok
		}
		cur = next
	}
	return unique, cur.trailer, attempts
}

// resilienceCfg is the shared single-engine resilience config.
func resilienceCfg() Config {
	return Config{
		Engines:  1,
		RowLimit: 1_000_000,
		Engine:   fastFaultTolerant(5),
	}
}

// TestBreakerOpensAndRecovers: a persistently faulting device trips the
// breaker after enough failed runs; the service then rejects fast with 429
// + Retry-After (no engine time burned), and after the cooldown a single
// successful probe closes the breaker again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	// K32 does not fit in the 8-frame buffer, so every run re-reads pages
	// and injected faults actually fire.
	db := buildCompleteDB(t, 32, 256)
	fdb := faultdb.Wrap(db, faultdb.Options{})
	s := newFaultServer(t, fdb, Config{Engines: 1, Engine: fastFaultTolerant(1)},
		breakerConfig{window: 4, minSamples: 2, openRatio: 0.6, cooldown: 50 * time.Millisecond})
	want := countQuery(t, s.Addr(), "q1").Count

	// Device dies: every read fails transiently, runs fail after the retry
	// budgets, and each failure feeds the breaker.
	fdb.FailRandom(1.0, nil)
	for i := 0; i < 2; i++ {
		resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1"})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulted run %d: status %d, want 500", i, resp.StatusCode)
		}
		// One fault in two outcomes is short of BreakerOpenRatio: there is no
		// degraded state in between, the breaker stays closed and admits the
		// second run (a 500 above, not a 429).
		if st := getStats(t, s.Addr()); i == 0 && st.BreakerState != "closed" {
			t.Fatalf("after 1 fault in 2 outcomes: breaker %q, want closed", st.BreakerState)
		}
	}
	if st := getStats(t, s.Addr()); st.BreakerState != "open" || st.BreakerTrips == 0 {
		t.Fatalf("after 2 transient failures: breaker %q trips=%d, want open", st.BreakerState, st.BreakerTrips)
	}

	// Open: reject-fast with Retry-After, without consuming a read.
	reads0 := fdb.Reads()
	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1"})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("open breaker: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open breaker: missing Retry-After")
	}
	if fdb.Reads() != reads0 {
		t.Errorf("rejected request still touched the device (%d reads)", fdb.Reads()-reads0)
	}
	if getStats(t, s.Addr()).BreakerRejects == 0 {
		t.Error("breaker_rejects not counted")
	}

	// Device heals; after the cooldown the next request is the half-open
	// probe, succeeds, and the breaker closes.
	fdb.Heal()
	time.Sleep(70 * time.Millisecond)
	if got := countQuery(t, s.Addr(), "q1").Count; got != want {
		t.Fatalf("probe count = %d, want %d", got, want)
	}
	if st := getStats(t, s.Addr()); st.BreakerState != "closed" {
		t.Fatalf("after successful probe: breaker %q, want closed", st.BreakerState)
	}
	if got := countQuery(t, s.Addr(), "q1").Count; got != want {
		t.Fatalf("post-recovery count = %d, want %d", got, want)
	}
	if v := metricValue(t, s.Addr(), "dualsim_breaker_state"); v != 0 {
		t.Errorf("dualsim_breaker_state = %v, want 0 (closed)", v)
	}
}

// TestResumeTokenRejection covers the rejection family: garbage and
// tampered tokens are 400, a token minted for one plan cannot resume a
// different query (409), and every rejection is counted.
func TestResumeTokenRejection(t *testing.T) {
	db := buildCompleteDB(t, 32, 256)
	fdb := faultdb.Wrap(db, faultdb.Options{})
	s := newFaultServer(t, fdb, resilienceCfg())

	// Mint a real token by truncating a stream past a window boundary.
	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1", Mode: "embeddings", Limit: 4000})
	if err != nil {
		t.Fatal(err)
	}
	res := readResumableStream(t, resp.Body)
	resp.Body.Close()
	if !res.done || !res.trailer.Truncated || res.trailer.ResumeToken == "" {
		t.Fatalf("truncated stream must carry a resume token: done=%v trailer=%+v", res.done, res.trailer)
	}
	tok := res.trailer.ResumeToken

	post := func(req QueryRequest) int {
		resp, err := postQuery(t, s.Addr(), req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(QueryRequest{Query: "q1", ResumeToken: "garbage"}); code != http.StatusBadRequest {
		t.Errorf("garbage token: status %d, want 400", code)
	}
	tampered := []byte(tok)
	tampered[len(tampered)/3] ^= 1
	if code := post(QueryRequest{Query: "q1", ResumeToken: string(tampered)}); code != http.StatusBadRequest {
		t.Errorf("tampered token: status %d, want 400", code)
	}
	if code := post(QueryRequest{Query: clique4Spec, ResumeToken: tok}); code != http.StatusConflict {
		t.Errorf("cross-plan token: status %d, want 409", code)
	}
	if st := getStats(t, s.Addr()); st.ResumesRejected != 3 {
		t.Errorf("resumes_rejected = %d, want 3", st.ResumesRejected)
	}

	// The untampered token still resumes the right plan to the exact count.
	unique, trailer, _ := resumeToCompletion(t, s.Addr(), "q1",
		streamResult{lastToken: tok}, 3, nil)
	if trailer.Count != 4960 {
		t.Errorf("resumed count = %d, want 4960", trailer.Count)
	}
	_ = unique
	if v := metricValue(t, s.Addr(), "dualsim_resumes_total"); v != 4 {
		t.Errorf("dualsim_resumes_total = %v, want 4 (3 rejected + 1 ok)", v)
	}
}

// doubleStarSpec is the double star S(a, b) as an edge list: adjacent
// centres 0 and 1, a leaves on 0 and b on 1. With a+b = 9 it has 11
// vertices, one more than the plan cache canonicalizes.
func doubleStarSpec(a, b int) string {
	edges := []string{"0-1"}
	for i := 0; i < a+b; i++ {
		centre := 0
		if i >= a {
			centre = 1
		}
		edges = append(edges, fmt.Sprintf("%d-%d", centre, 2+i))
	}
	return strings.Join(edges, ",")
}

// TestResumeTokenBindsLargeQuery: a query above the canonicalization bound
// bypasses the plan cache, and its resume token must still resume only that
// query. S(1,8) and S(4,5) have 11 vertices and two red vertices each, so a
// checkpoint of one fits the other's plan shape; the token of a limit-cut
// S(1,8) stream must resume S(1,8) to its exact count and be refused (409)
// for S(4,5) and for a relabelled spelling of S(1,8).
func TestResumeTokenBindsLargeQuery(t *testing.T) {
	// 30 gadgets S(9,9): 600 vertices. S(1,8) occurs 2·9·9 = 162 times in
	// one, S(4,5) 2·C(9,4)·C(9,5) = 31 752 times.
	var edges [][2]graph.VertexID
	for g := 0; g < 30; g++ {
		c0, c1 := graph.VertexID(20*g), graph.VertexID(20*g+1)
		edges = append(edges, [2]graph.VertexID{c0, c1})
		for i := graph.VertexID(0); i < 9; i++ {
			edges = append(edges, [2]graph.VertexID{c0, c0 + 2 + i}, [2]graph.VertexID{c1, c0 + 11 + i})
		}
	}
	dir := t.TempDir()
	path := dir + "/stars.db"
	if _, err := storage.BuildFromGraph(path, graph.MustNewGraph(600, edges),
		storage.BuildOptions{PageSize: 128, TempDir: dir}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := newFaultServer(t, db, Config{Engines: 1, RowLimit: 1_000_000,
		Engine: core.Options{Threads: 1, BufferFrames: 24}})

	s18, s45 := doubleStarSpec(1, 8), doubleStarSpec(4, 5)
	// S(1,8) with its centres swapped: the same query, spelled differently.
	s81 := doubleStarSpec(8, 1)
	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: s18, Mode: "embeddings", Limit: 3000})
	if err != nil {
		t.Fatal(err)
	}
	cut := readResumableStream(t, resp.Body)
	resp.Body.Close()
	if !cut.done || !cut.trailer.Truncated || cut.trailer.ResumeToken == "" {
		t.Fatalf("limit-cut stream must carry a resume token: done=%v err=%q trailer=%+v", cut.done, cut.errMsg, cut.trailer)
	}
	tok := cut.trailer.ResumeToken
	for _, spec := range []string{s45, s81} {
		resp, err := postQuery(t, s.Addr(), QueryRequest{Query: spec, ResumeToken: tok})
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("token of %s redeemed by %s: status %d (%s), want 409", s18, spec, resp.StatusCode, body)
		}
	}
	resp, err = postQuery(t, s.Addr(), QueryRequest{Query: s18, ResumeToken: tok})
	if err != nil {
		t.Fatal(err)
	}
	if qr := decodeQueryResponse(t, resp); resp.StatusCode != http.StatusOK || !qr.Resumed || qr.Count != 4860 {
		t.Errorf("token redeemed by its own query: status %d, resumed %v, count %d, want 200, true, 4860",
			resp.StatusCode, qr.Resumed, qr.Count)
	}
}

// TestPoolCapacityAfterRetryExhaustion (ISSUE 6 satellite): back-to-back
// runs that exhaust the read retry budget must not leak pool capacity — every
// engine returns to the slots channel clean (no recycling), and the healed
// pool serves correct counts.
func TestPoolCapacityAfterRetryExhaustion(t *testing.T) {
	db := buildCompleteDB(t, 16, 256)
	fdb := faultdb.Wrap(db, faultdb.Options{}).TransientPages(1<<30, 0)
	const engines = 2
	// Breaker thresholds out of reach: this test is about the pool, not
	// admission.
	br := poolBreaker
	br.minSamples = 1 << 30
	s := newFaultServer(t, fdb, Config{Engines: engines, Engine: fastFaultTolerant(3)}, br)

	for i := 0; i < 6; i++ {
		resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1"})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("exhausted run %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	// release() runs after the response body completes; give it a beat.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.current().slots) != engines && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(s.current().slots); got != engines {
		t.Fatalf("pool capacity = %d after retry exhaustion, want %d", got, engines)
	}
	if got := s.sm.recycled.Value(); got != 0 {
		t.Fatalf("%d engines recycled: retry exhaustion leaked pins", got)
	}

	fdb.Heal()
	if got := countQuery(t, s.Addr(), "q1").Count; got != 560 { // C(16,3)
		t.Fatalf("healed count = %d, want 560", got)
	}
}

// TestDisconnectReturnsCleanEngine: a client disconnect mid-run cancels
// the run, every window pin is released before the engine re-enters the
// pool, and the engine is REUSED (no recycle), with zero pinned frames.
func TestDisconnectReturnsCleanEngine(t *testing.T) {
	db := buildCompleteDB(t, 48, 256)
	s := newTestServer(t, db, Config{
		Engines:  1,
		RowLimit: 10_000_000,
		Engine: core.Options{
			Threads:        2,
			BufferFrames:   64,
			PerPageLatency: 5 * time.Millisecond,
		},
	})

	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: clique4Spec, Mode: "embeddings"})
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("reading row %d: %v", i, err)
		}
	}
	resp.Body.Close() // vanish mid-run, while window loads are in flight

	select {
	case eng := <-s.current().slots:
		if pins := eng.PinnedFrames(); pins != 0 {
			t.Errorf("engine returned with %d pinned frames", pins)
		}
		s.current().slots <- eng
	case <-time.After(15 * time.Second):
		t.Fatal("engine never returned to the pool after disconnect")
	}
	if got := s.sm.recycled.Value(); got != 0 {
		t.Fatalf("engine was recycled (%d) instead of reused", got)
	}
}
