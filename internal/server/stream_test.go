package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/graph"
)

// TestStreamLimitCutsInsideBatch: rows reach the response in batches of up
// to 512, the row limit is enforced to the row — a limit below, at and above
// a batch boundary, below, at and above the count each stream exactly
// min(limit, count) distinct rows — and a truncated trailer carries a token
// from which resuming reaches every embedding: no checkpoint covers a row
// the cut dropped. A client that walks away from a stream of full batches
// cancels the run and gets the engine back clean. Run with -race -count=20
// (make check does).
func TestStreamLimitCutsInsideBatch(t *testing.T) {
	db := buildCompleteDB(t, 48, 256)
	const count = 17296 // C(48,3)
	s := newTestServer(t, db, Config{
		Engines:  1,
		RowLimit: 1_000_000,
		// Several level-1 windows of thousands of rows each, two workers.
		Engine: core.Options{Threads: 2, BufferFrames: 24},
	})
	if got := countQuery(t, s.Addr(), "q1").Count; got != count {
		t.Fatalf("count = %d, want %d", got, count)
	}

	for _, limit := range []int{1, 511, 512, 513, count - 1, count, count + 1} {
		resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1", Mode: "embeddings", Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		first := readResumableStream(t, resp.Body)
		resp.Body.Close()
		want := min(limit, count)
		distinct := make(map[string]struct{}, len(first.rows))
		for _, row := range first.rows {
			distinct[rowKey(row)] = struct{}{}
		}
		if len(first.rows) != want || len(distinct) != want || first.trailer.Rows != uint64(want) {
			t.Fatalf("limit %d: %d rows (%d distinct), trailer says %d, want %d",
				limit, len(first.rows), len(distinct), first.trailer.Rows, want)
		}
		// Reaching the limit truncates, even where nothing was left to send.
		if !first.done || first.trailer.Truncated != (limit <= count) {
			t.Fatalf("limit %d: done=%v truncated=%v", limit, first.done, first.trailer.Truncated)
		}
		if !first.trailer.Truncated {
			if first.trailer.Count != count {
				t.Errorf("limit %d: complete stream counted %d, want %d", limit, first.trailer.Count, count)
			}
			continue
		}
		if limit > count/2 && first.trailer.ResumeToken == "" {
			t.Errorf("limit %d: truncated trailer without a token, windows into the run", limit)
		}
		first.done = false // truncated, not finished: go on from the trailer's token
		first.lastToken = first.trailer.ResumeToken
		unique, trailer, _ := resumeToCompletion(t, s.Addr(), "q1", first, 1, nil)
		if len(unique) != count || trailer.Count != count {
			t.Errorf("limit %d: %d distinct rows after resuming, count %d, want %d: the token skipped rows the cut dropped",
				limit, len(unique), trailer.Count, count)
		}
	}

	// The walk-away: take a few full batches, then vanish.
	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1", Mode: "embeddings"})
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 2000; i++ {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("reading row %d: %v", i, err)
		}
	}
	resp.Body.Close()
	select {
	case eng := <-s.current().slots:
		if pins := eng.PinnedFrames(); pins != 0 {
			t.Errorf("engine returned with %d pinned frames", pins)
		}
		s.current().slots <- eng
	case <-time.After(10 * time.Second):
		t.Fatal("engine never returned to the pool after the client left")
	}
}

// discardWriter is a ResponseWriter that takes everything and keeps nothing.
type discardWriter struct{}

func (discardWriter) Header() http.Header         { return http.Header{} }
func (discardWriter) WriteHeader(int)             {}
func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestStreamEmitAllocs holds the row hook to what it is for: a batch is
// encoded and written without reflection and without a per-row allocation —
// at most two allocations for 512 rows in steady state — and what it writes
// is byte for byte what encoding/json prints for the relabeled rows.
func TestStreamEmitAllocs(t *testing.T) {
	s, err := New(buildCompleteDB(t, 8, 256), Config{Engines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const width, batch = 4, 512
	perm := []int{2, 0, 3, 1}
	rng := rand.New(rand.NewSource(24))
	rows := make([]graph.VertexID, width*batch)
	for i := range rows {
		rows[i] = graph.VertexID(rng.Uint32() >> uint(rng.Intn(32))) // every digit count
	}

	var out flushLog
	rs := &rowStream{sm: s.sm, w: &out, perm: perm, limit: math.MaxUint64, cancelRun: func() {}}
	rs.onRows(rows, width)
	var want bytes.Buffer
	for row := rows; len(row) > 0; row = row[width:] {
		relabeled := make([]graph.VertexID, width)
		for v := range relabeled {
			relabeled[v] = row[perm[v]]
		}
		line, _ := json.Marshal(relabeled)
		want.Write(line)
		want.WriteByte('\n')
	}
	if !bytes.Equal(out.body.Bytes(), want.Bytes()) {
		t.Fatalf("the hook wrote\n%.200s…\nencoding/json prints\n%.200s…", out.body.Bytes(), want.Bytes())
	}

	rs = &rowStream{sm: s.sm, w: discardWriter{}, perm: perm, limit: math.MaxUint64, cancelRun: func() {}}
	before := s.sm.rowsStreamed.Value()
	const runs = 200
	avg := testing.AllocsPerRun(runs, func() { rs.onRows(rows, width) })
	if avg > 2 {
		t.Errorf("%.1f allocations per %d-row batch, want at most 2", avg, batch)
	}
	if got := s.sm.rowsStreamed.Value() - before; rs.rows != (runs+1)*batch || got != rs.rows {
		t.Errorf("stream counted %d rows, the metric %d, want %d", rs.rows, got, (runs+1)*batch)
	}
	if rs.truncated || rs.clientGone {
		t.Errorf("truncated=%v clientGone=%v on an unbounded stream", rs.truncated, rs.clientGone)
	}
}
