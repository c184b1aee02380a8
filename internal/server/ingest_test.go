package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"dualsim/internal/core"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// mutableCfg is the shared live-ingest server template.
func mutableCfg() Config {
	return Config{
		Engines: 2,
		Mutable: true,
		Engine:  core.Options{Threads: 2, BufferFrames: 64},
	}
}

// postEdges sends one atomic mutation batch and returns the raw response.
func postEdges(t *testing.T, addr string, ops []EdgeOp) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, op := range ops {
		if err := enc.Encode(op); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post("http://"+addr+"/edges", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func mustIngest(t *testing.T, addr string, ops []EdgeOp) IngestResponse {
	t.Helper()
	resp := postEdges(t, addr, ops)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /edges: status %d: %s", resp.StatusCode, b)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	return ir
}

// TestIngestValidation: malformed and invalid batches are rejected whole,
// atomically — no partial application, no epoch movement.
func TestIngestValidation(t *testing.T) {
	db := buildCompleteDB(t, 8, 256)
	s := newTestServer(t, db, mutableCfg())

	reject := func(name, body string, wantStatus int) {
		t.Helper()
		resp, err := http.Post("http://"+s.Addr()+"/edges", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			b, _ := io.ReadAll(resp.Body)
			t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, wantStatus, b)
		}
	}
	reject("empty body", "", http.StatusBadRequest)
	reject("bad json", "{", http.StatusBadRequest)
	reject("bad op", `{"op":"upsert","u":0,"v":1}`, http.StatusBadRequest)
	reject("negative endpoint", `{"u":-1,"v":1}`, http.StatusBadRequest)
	reject("endpoint out of range", `{"u":0,"v":8}`, http.StatusBadRequest)
	reject("self loop", `{"u":3,"v":3}`, http.StatusBadRequest)
	// A batch with one bad op among good ones must not partially apply.
	reject("mixed batch", `{"u":0,"v":1}{"u":5,"v":5}`, http.StatusBadRequest)
	// A valid op padded past the body bound is refused before it is decoded.
	reject("padded op", `{"u":0,"v":1}`+strings.Repeat(" ", maxIngestBody), http.StatusRequestEntityTooLarge)

	if st := getStats(t, s.Addr()); st.DataEpoch != 0 || st.Ingest.Batches != 0 {
		t.Errorf("rejected batches moved state: epoch=%d batches=%d", st.DataEpoch, st.Ingest.Batches)
	}
	if qr := countQuery(t, s.Addr(), "q1"); qr.Count != 56 {
		t.Errorf("count after rejected batches = %d, want 56", qr.Count)
	}
	if v := metricValue(t, s.Addr(), "dualsim_ingest_rejected_total"); v != 8 {
		t.Errorf("dualsim_ingest_rejected_total = %v after 8 rejections", v)
	}
	// An immutable server has no ingest route at all.
	s2 := newTestServer(t, buildCompleteDB(t, 8, 256), Config{Engines: 1, Engine: core.Options{Threads: 1, BufferFrames: 64}})
	resp, err := http.Post("http://"+s2.Addr()+"/edges", "application/json", strings.NewReader(`{"u":0,"v":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("immutable server accepted POST /edges")
	}
	if st := getStats(t, s2.Addr()); st.Ingest != nil {
		t.Error("immutable server reports an ingest section")
	}
}

// buildMutableDB builds g WITHOUT degree relabeling, so on-disk vertex
// IDs are exactly g's — the coordinate system POST /edges mutates in.
func buildMutableDB(t *testing.T, g *graph.Graph, pageSize int) *storage.DB {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "live.db")
	if _, err := storage.BuildFromGraph(path, g, storage.BuildOptions{PageSize: pageSize, TempDir: dir, SkipReorder: true}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestCompactionKeepsEncoding: a Mutable server over a compressed base folds
// its overlay into a file that is compressed too — every record of the
// swapped file — and the folded server answers as a rebuild of the mutated
// graph does.
func TestCompactionKeepsEncoding(t *testing.T) {
	const n = 12
	var all, folded [][2]graph.VertexID // K12, and K12 less (0,1) and (2,3)
	for u := graph.VertexID(0); u < n; u++ {
		for w := u + 1; w < n; w++ {
			e := [2]graph.VertexID{u, w}
			all = append(all, e)
			if e != [2]graph.VertexID{0, 1} && e != [2]graph.VertexID{2, 3} {
				folded = append(folded, e)
			}
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "live.db")
	if _, err := storage.BuildFromGraph(path, graph.MustNewGraph(n, all), storage.BuildOptions{PageSize: 256, TempDir: dir, SkipReorder: true, Compress: true}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := newTestServer(t, db, mutableCfg())
	mustIngest(t, s.Addr(), []EdgeOp{{Op: "delete", U: 0, V: 1}, {Op: "delete", U: 2, V: 3}})

	resp, err := http.Post("http://"+s.Addr()+"/admin/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr CompactResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !cr.Compacted {
		t.Fatalf("compact reply %+v, want compacted", cr)
	}
	swapped, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer swapped.Close()
	st, err := swapped.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CompressedRecs != st.Records {
		t.Errorf("compacted file: %d of %d records compressed, want all", st.CompressedRecs, st.Records)
	}

	rebuilt := newTestServer(t, buildMutableDB(t, graph.MustNewGraph(n, folded), 256), mutableCfg())
	for _, q := range []string{"q1", clique4Spec, "0-1,1-2,2-3,0-3"} {
		if got, want := countQuery(t, s.Addr(), q).Count, countQuery(t, rebuilt.Addr(), q).Count; got != want {
			t.Errorf("%s: folded server counts %d, a rebuild %d", q, got, want)
		}
	}
}
