package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestLiveIngestMutatesCounts: POST /edges changes what queries see, each
// batch advances the data epoch, cached plans survive the bump (a plan
// reads nothing from the data), and the ingest counters surface in /stats
// and /metrics.
func TestLiveIngestMutatesCounts(t *testing.T) {
	db := buildCompleteDB(t, 8, 256) // C(8,3) = 56 triangles
	s := newTestServer(t, db, mutableCfg())

	qr := countQuery(t, s.Addr(), "q1")
	if qr.Count != 56 {
		t.Fatalf("base count = %d, want 56", qr.Count)
	}
	if qr.DataEpoch != 0 {
		t.Fatalf("base data epoch = %d, want 0", qr.DataEpoch)
	}

	// Deleting one edge of K8 kills the 6 triangles through it.
	ir := mustIngest(t, s.Addr(), []EdgeOp{{Op: "delete", U: 0, V: 1}})
	if ir.Epoch != 1 || ir.Applied != 1 {
		t.Fatalf("ingest reply = %+v, want epoch 1, applied 1", ir)
	}
	qr = countQuery(t, s.Addr(), "q1")
	if qr.Count != 50 {
		t.Errorf("count after delete = %d, want 50", qr.Count)
	}
	if qr.DataEpoch != 1 {
		t.Errorf("data epoch after delete = %d, want 1", qr.DataEpoch)
	}
	if !qr.PlanCached {
		t.Error("plan rebuilt across the epoch bump (want the cached plan)")
	}

	// Reinserting restores the base graph exactly (idempotent overlay).
	ir = mustIngest(t, s.Addr(), []EdgeOp{{U: 0, V: 1}})
	if ir.Epoch != 2 {
		t.Fatalf("epoch after reinsert = %d, want 2", ir.Epoch)
	}
	if qr := countQuery(t, s.Addr(), "q1"); qr.Count != 56 || qr.DataEpoch != 2 {
		t.Errorf("count after reinsert = %d at epoch %d, want 56 at 2", qr.Count, qr.DataEpoch)
	}

	// A multi-op batch is one epoch bump.
	ir = mustIngest(t, s.Addr(), []EdgeOp{
		{Op: "delete", U: 0, V: 1}, {Op: "delete", U: 2, V: 3}, {U: 0, V: 1},
	})
	if ir.Epoch != 3 || ir.Applied != 3 {
		t.Fatalf("batch reply = %+v, want epoch 3, applied 3", ir)
	}
	if qr := countQuery(t, s.Addr(), "q1"); qr.Count != 50 {
		t.Errorf("count after batch = %d, want 50", qr.Count)
	}

	st := getStats(t, s.Addr())
	if st.DataEpoch != 3 {
		t.Errorf("/stats data_epoch = %d, want 3", st.DataEpoch)
	}
	if st.Ingest == nil {
		t.Fatal("/stats ingest section missing on a mutable server")
	}
	if st.Ingest.Batches != 3 || st.Ingest.Ops != 5 {
		t.Errorf("/stats ingest = %+v, want 3 batches / 5 ops", st.Ingest)
	}
	if st.Ingest.DeltaVertices == 0 {
		t.Error("/stats ingest delta_vertices = 0 with pending mutations")
	}
	if v := metricValue(t, s.Addr(), "dualsim_ingest_batches_total"); v != 3 {
		t.Errorf("dualsim_ingest_batches_total = %v, want 3", v)
	}
	if v := metricValue(t, s.Addr(), "dualsim_data_epoch"); v != 3 {
		t.Errorf("dualsim_data_epoch = %v, want 3", v)
	}

	// The epoch is stamped into the base file's superblock as batches land.
	if got := db.Epoch(); got == 0 {
		// db's in-memory superblock predates the stamps; re-open the file.
		re, err := storage.Open(db.Path())
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if re.Epoch() != 3 {
			t.Errorf("on-disk epoch = %d, want 3", re.Epoch())
		}
	}
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

// TestResumeStaleEpoch is the staleness regression for the resume seam: a
// token minted at epoch E must be refused with 409 once a mutation lands,
// counted under dualsim_resumes_total{reason="stale_epoch"} — its settled
// counts describe a graph that no longer exists.
func TestResumeStaleEpoch(t *testing.T) {
	db := buildCompleteDB(t, 32, 256)
	cfg := mutableCfg()
	cfg.RowLimit = 100_000
	// Small frames force several level-1 windows, so the truncated stream
	// crosses a checkpoint boundary and carries a token.
	cfg.Engine = core.Options{Threads: 1, BufferFrames: 8}
	s := newTestServer(t, db, cfg)

	// Mint a token by truncating a stream past a window boundary.
	resp, err := postQuery(t, s.Addr(), QueryRequest{Query: "q1", Mode: "embeddings", Limit: 4000})
	if err != nil {
		t.Fatal(err)
	}
	res := readResumableStream(t, resp.Body)
	resp.Body.Close()
	if !res.done || !res.trailer.Truncated || res.trailer.ResumeToken == "" {
		t.Fatalf("truncated stream must carry a resume token: done=%v trailer=%+v", res.done, res.trailer)
	}

	// Before any mutation the token redeems fine... on a second server? No —
	// prove redemption works at the minting epoch first.
	resp, err = postQuery(t, s.Addr(), QueryRequest{Query: "q1", Mode: "embeddings", ResumeToken: res.trailer.ResumeToken, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("same-epoch resume: status %d: %s", resp.StatusCode, b)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Mutate between checkpoint and resume: the token is now a lie.
	mustIngest(t, s.Addr(), []EdgeOp{{Op: "delete", U: 0, V: 1}})

	resp, err = postQuery(t, s.Addr(), QueryRequest{Query: "q1", Mode: "embeddings", ResumeToken: res.trailer.ResumeToken})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cross-epoch resume: status %d, want 409: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "stale") {
		t.Errorf("409 body does not explain staleness: %s", body)
	}
	if v := metricValue(t, s.Addr(), `dualsim_resumes_total{reason="stale_epoch"}`); v != 1 {
		t.Errorf(`dualsim_resumes_total{reason="stale_epoch"} = %v, want 1`, v)
	}

	// A token minted AFTER the mutation redeems at the new epoch.
	resp, err = postQuery(t, s.Addr(), QueryRequest{Query: "q1", Mode: "embeddings", Limit: 4000})
	if err != nil {
		t.Fatal(err)
	}
	res = readResumableStream(t, resp.Body)
	resp.Body.Close()
	if res.trailer.ResumeToken == "" {
		t.Fatal("no token on post-mutation stream")
	}
	resp, err = postQuery(t, s.Addr(), QueryRequest{Query: "q1", Mode: "embeddings", ResumeToken: res.trailer.ResumeToken, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("new-epoch resume: status %d: %s", resp.StatusCode, b)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
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

// TestCompactionFoldsOverlayLive: /admin/compact folds the overlay into a
// fresh file swapped under a running server — counts and epoch are
// unchanged across the fold, the overlay drains, the on-disk file carries
// the epoch, and ingest keeps working afterwards.
func TestCompactionFoldsOverlayLive(t *testing.T) {
	db := buildCompleteDB(t, 10, 256) // C(10,3) = 120 triangles
	path := db.Path()
	s := newTestServer(t, db, mutableCfg())

	mustIngest(t, s.Addr(), []EdgeOp{{Op: "delete", U: 0, V: 1}})
	mustIngest(t, s.Addr(), []EdgeOp{{Op: "delete", U: 2, V: 3}})
	before := countQuery(t, s.Addr(), "q1")
	if before.DataEpoch != 2 {
		t.Fatalf("pre-compact epoch = %d, want 2", before.DataEpoch)
	}

	resp, err := http.Post("http://"+s.Addr()+"/admin/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr CompactResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !cr.Compacted || cr.Epoch != 2 {
		t.Fatalf("compact reply: status %d, %+v (want compacted at epoch 2)", resp.StatusCode, cr)
	}

	after := countQuery(t, s.Addr(), "q1")
	if after.Count != before.Count || after.DataEpoch != 2 {
		t.Errorf("post-compact count %d at epoch %d, want %d at 2", after.Count, after.DataEpoch, before.Count)
	}
	st := getStats(t, s.Addr())
	if st.Ingest.Compactions != 1 || st.Ingest.DeltaVertices != 0 {
		t.Errorf("post-compact ingest stats = %+v, want 1 compaction, drained overlay", st.Ingest)
	}

	// The folded file on disk IS the mutated graph at epoch 2.
	re, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != 2 {
		t.Errorf("compacted file epoch = %d, want 2", re.Epoch())
	}
	if err := re.VerifyIntegrity(); err != nil {
		t.Errorf("compacted file integrity: %v", err)
	}

	// An empty overlay has nothing to fold.
	resp, err = http.Post("http://"+s.Addr()+"/admin/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cr.Compacted {
		t.Error("second compact folded an empty overlay")
	}

	// Ingest continues over the compacted base.
	ir := mustIngest(t, s.Addr(), []EdgeOp{{U: 0, V: 1}})
	if ir.Epoch != 3 {
		t.Fatalf("post-compact ingest epoch = %d, want 3", ir.Epoch)
	}
	// Reinserting (0,1) restores its 8 triangles (third vertex in 2..9;
	// the still-missing (2,3) is not incident to any of them).
	if qr := countQuery(t, s.Addr(), "q1"); qr.Count != before.Count+8 {
		t.Errorf("post-compact-ingest count = %d, want %d", qr.Count, before.Count+8)
	}
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

// TestChaosIngestSoak (make soak / CI soak job): concurrent mutators,
// queries, and compactions race for SOAK_SECONDS under -race, with each
// mutator owning a disjoint edge set so the settled graph is
// order-independent. After the storm settles, the served count at the
// observed epoch must equal a from-scratch rebuild of the oracle graph
// AND the brute-force count.
func TestChaosIngestSoak(t *testing.T) {
	soak := 2 * time.Second
	if v := os.Getenv("SOAK_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad SOAK_SECONDS %q: %v", v, err)
		}
		soak = time.Duration(secs) * time.Second
	}

	const n = 24
	var edges [][2]graph.VertexID
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(i), graph.VertexID(j)})
		}
	}
	base := graph.MustNewGraph(n, edges)
	db := buildMutableDB(t, base, 256)
	cfg := mutableCfg()
	cfg.Engines = 3
	cfg.QueueDepth = 64
	cfg.QueueWait = 30 * time.Second
	s := newTestServer(t, db, cfg)

	// Each mutator owns the edges whose smaller endpoint ≡ id (mod M):
	// disjoint sets, so the final graph is the union of per-mutator finals
	// regardless of interleaving.
	const mutators = 3
	present := make([]map[[2]graph.VertexID]bool, mutators)
	for m := range present {
		present[m] = map[[2]graph.VertexID]bool{}
		for _, e := range edges {
			if int(e[0])%mutators == m {
				present[m][e] = true
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, mutators+3)
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7700 + m)))
			var owned [][2]graph.VertexID
			for e := range present[m] {
				owned = append(owned, e)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				ops := make([]EdgeOp, 1+rng.Intn(4))
				var buf bytes.Buffer
				enc := json.NewEncoder(&buf)
				for i := range ops {
					e := owned[rng.Intn(len(owned))]
					op := "insert"
					if rng.Intn(2) == 0 {
						op = "delete"
					}
					ops[i] = EdgeOp{Op: op, U: int64(e[0]), V: int64(e[1])}
					_ = enc.Encode(ops[i])
				}
				resp, err := http.Post("http://"+s.Addr()+"/edges", "application/x-ndjson", &buf)
				if err != nil {
					errCh <- fmt.Errorf("mutator %d: %v", m, err)
					return
				}
				ok := resp.StatusCode == http.StatusOK
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if !ok {
					errCh <- fmt.Errorf("mutator %d: ingest status %d", m, resp.StatusCode)
					return
				}
				// The batch applied atomically in order: replay onto the
				// mutator's private truth.
				for _, op := range ops {
					e := [2]graph.VertexID{graph.VertexID(op.U), graph.VertexID(op.V)}
					if op.Op == "insert" {
						present[m][e] = true
					} else {
						delete(present[m], e)
					}
				}
			}
		}(m)
	}
	// Query workers: counts must always be served without error; the value
	// is epoch-dependent, so only validity is asserted until settle time.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			specs := []string{"q1", "q2"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := postQuery(t, s.Addr(), QueryRequest{Query: specs[i%len(specs)]})
				if err != nil {
					errCh <- fmt.Errorf("query worker %d: %v", w, err)
					return
				}
				ok := resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusTooManyRequests
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if !ok {
					errCh <- fmt.Errorf("query worker %d: status %d", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	// Compaction chaos: fold the overlay mid-storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(soak / 4):
			}
			resp, err := http.Post("http://"+s.Addr()+"/admin/compact", "application/json", nil)
			if err != nil {
				errCh <- fmt.Errorf("compactor: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	time.Sleep(soak)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Settle: the union of per-mutator finals is the oracle graph.
	final := map[[2]graph.VertexID]bool{}
	for _, m := range present {
		for e := range m {
			final[e] = true
		}
	}
	var flist [][2]graph.VertexID
	for e := range final {
		flist = append(flist, e)
	}
	oracle := graph.MustNewGraph(n, flist)

	settledEpoch := getStats(t, s.Addr()).DataEpoch
	for _, spec := range []string{"q1", "q2"} {
		q, err := graph.ParseQuerySpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := graph.CountOccurrences(oracle, q)
		qr := countQuery(t, s.Addr(), spec)
		if qr.DataEpoch != settledEpoch {
			t.Fatalf("epoch moved after settle: %d -> %d", settledEpoch, qr.DataEpoch)
		}
		if qr.Count != want {
			t.Errorf("settled %s count = %d at epoch %d, want %d (oracle, %d edges)",
				spec, qr.Count, qr.DataEpoch, want, oracle.NumEdges())
		}
		// From-scratch rebuild of the oracle graph must agree bit-identically.
		rdb := buildMutableDB(t, oracle, 256)
		e, err := core.NewEngine(rdb, core.Options{Threads: 2, BufferFrames: 64})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(q)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Errorf("rebuilt-DB %s count = %d, want %d", spec, res.Count, want)
		}
	}
}
