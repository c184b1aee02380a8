package dualsim

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

func randomEdges(rng *rand.Rand, n, m int) [][2]VertexID {
	edges := make([][2]VertexID, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]VertexID{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))})
	}
	return edges
}

func buildAndOpen(t *testing.T, n int, edges [][2]VertexID, opt BuildOptions) *DB {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.db")
	if opt.TempDir == "" {
		opt.TempDir = dir
	}
	stats, err := BuildFromEdges(path, n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumPages == 0 || stats.Elapsed <= 0 {
		t.Fatalf("suspicious build stats: %+v", stats)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPublicAPIQuickstart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 120
	edges := randomEdges(rng, n, 700)
	db := buildAndOpen(t, n, edges, BuildOptions{PageSize: 256})
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	eng, err := db.NewEngine(Options{Threads: 2, BufferFrames: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, q := range PaperQueries() {
		got, err := eng.Count(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name(), err)
		}
		want, err := CountInMemory(n, edges, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: disk count %d, memory count %d", q.Name(), got, want)
		}
	}
}

func TestPublicResultFields(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 100
	edges := randomEdges(rng, n, 500)
	db := buildAndOpen(t, n, edges, BuildOptions{PageSize: 256})
	eng, err := db.NewEngine(Options{Threads: 2, BufferFrames: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Run(House())
	if err != nil {
		t.Fatal(err)
	}
	if res.RedVertices != 3 || res.VGroups != 2 {
		t.Errorf("house plan: red=%d groups=%d, want 3 and 2", res.RedVertices, res.VGroups)
	}
	if res.PhysicalReads == 0 || res.ExecTime <= 0 {
		t.Errorf("stats incomplete: %+v", res)
	}
	if res.Count != res.Internal+res.External {
		t.Errorf("count split inconsistent: %+v", res)
	}
}

func TestEnumerateCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 60
	edges := randomEdges(rng, n, 300)
	db := buildAndOpen(t, n, edges, BuildOptions{PageSize: 256})
	var got []Embedding
	res, err := db.Enumerate(Triangle(), Options{Threads: 3, BufferFrames: 20}, func(m Embedding) {
		got = append(got, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(got)) != res.Count {
		t.Fatalf("callback count %d, result count %d", len(got), res.Count)
	}
	for _, m := range got {
		if len(m) != 3 {
			t.Fatalf("embedding %v has wrong arity", m)
		}
	}
}

// TestEnumerateContract holds Enumerate to what its comment promises now
// that embeddings arrive from the engine in batches: under four threads fn is
// never entered by two goroutines at once, every Embedding is fn's own — all
// are kept, one is appended to, and after the run they are still exactly the
// brute-force embeddings, each once — and printed the way `dualsim run
// -print` prints them they are, line for line, a permutation of what one
// fmt.Println per brute-force embedding writes. Run with -race -count=20
// (make check does).
func TestEnumerateContract(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n := 200
	edges := randomEdges(rng, n, 1500)
	// SkipReorder: the embeddings are in the edge list's own vertex IDs.
	db := buildAndOpen(t, n, edges, BuildOptions{PageSize: 256, SkipReorder: true})
	g, err := graph.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*Query{Triangle(), House()} {
		var want []string
		graph.BruteForceEnumerate(g, q, graph.SymmetryBreak(q), func(m []VertexID) bool {
			want = append(want, fmt.Sprintln(m))
			return true
		})
		slices.Sort(want)

		var inside atomic.Bool
		var overlaps int
		var kept []Embedding
		res, err := db.Enumerate(q, Options{Threads: 4, BufferFrames: 24}, func(m Embedding) {
			if !inside.CompareAndSwap(false, true) {
				overlaps++
			}
			kept = append(kept, m)
			_ = append(m, ^VertexID(0)) // must not reach the next embedding of the batch
			runtime.Gosched()           // give a second caller its chance
			inside.Store(false)
		})
		if err != nil {
			t.Fatal(err)
		}
		if overlaps > 0 {
			t.Errorf("%s: fn entered %d times while another call was inside", q.Name(), overlaps)
		}
		if res.Level1Windows < 2 {
			t.Fatalf("%s: %d level-1 windows, want several", q.Name(), res.Level1Windows)
		}
		got := make([]string, len(kept))
		for i, m := range kept {
			got[i] = fmt.Sprintln(m)
		}
		slices.Sort(got)
		if uint64(len(got)) != res.Count || !slices.Equal(got, want) {
			t.Errorf("%s: %d embeddings kept for a count of %d, brute force %d; as printed they are not the same lines",
				q.Name(), len(got), res.Count, len(want))
		}
	}
}

func TestBuildFromEdgeFile(t *testing.T) {
	dir := t.TempDir()
	edgeFile := filepath.Join(dir, "edges.txt")
	content := "# triangle plus a tail\n0 1\n1 2\n0 2\n2 3\n"
	if err := os.WriteFile(edgeFile, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	dbPath := filepath.Join(dir, "g.db")
	stats, err := BuildFromEdgeFile(dbPath, edgeFile, BuildOptions{PageSize: 128, TempDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumVertices != 4 || stats.NumEdges != 4 {
		t.Fatalf("stats: %+v", stats)
	}
	db, err := Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	eng, err := db.NewEngine(Options{BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	got, err := eng.Count(Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("triangles = %d, want 1", got)
	}
}

func TestBuildFromEdgeFileMissing(t *testing.T) {
	if _, err := BuildFromEdgeFile(filepath.Join(t.TempDir(), "out.db"), "no-such-file", BuildOptions{}); err == nil {
		t.Fatal("missing edge file accepted")
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing.db")); err == nil {
		t.Fatal("missing db accepted")
	}
}

func TestNewQueryValidation(t *testing.T) {
	if _, err := NewQuery("bad", 3, [][2]int{{0, 1}}); err == nil {
		t.Fatal("disconnected query accepted")
	}
	q, err := NewQuery("tri", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if q.NumEdges() != 3 {
		t.Fatalf("edges = %d", q.NumEdges())
	}
}

// TestDBAccessors: the file's shape, and its degrees as the engine sees them:
// the 3-vertex path's count is Σ C(d(v), 2) over the in-memory graph's
// degrees.
func TestDBAccessors(t *testing.T) {
	g := gen.ChungLu(2000, 8000, 2.8, 1)
	n := g.NumVertices()
	db := buildAndOpen(t, n, g.EdgeList(), BuildOptions{PageSize: 256})
	if db.NumVertices() != n || db.NumEdges() != uint64(g.NumEdges()) {
		t.Errorf("NumVertices = %d, NumEdges = %d", db.NumVertices(), db.NumEdges())
	}
	if db.NumPages() == 0 || db.PageSize() != 256 {
		t.Errorf("pages=%d pageSize=%d", db.NumPages(), db.PageSize())
	}
	var want uint64
	for v := 0; v < n; v++ {
		d := uint64(g.Degree(VertexID(v)))
		want += d * (d - 1) / 2
	}
	eng, err := db.NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got, err := eng.Count(Path("wedge", 3)); err != nil || got != want {
		t.Errorf("3-path count %d (%v), want Σ C(d, 2) = %d", got, err, want)
	}
}

// TestMisplacedPageFailsRun: a page whose image is another page's — a
// misdirected write, which its checksum cannot see — or whose records were
// renamed one vertex up under a rewritten checksum fails a run with the retry
// layer on, naming the page it was read as, and never ends in a count;
// verification names it too.
func TestMisplacedPageFailsRun(t *testing.T) {
	const pageSize = 512
	g := gen.ChungLu(2000, 8000, 2.8, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.db")
	if _, err := BuildFromEdges(path, g.NumVertices(), g.EdgeList(), BuildOptions{PageSize: pageSize, TempDir: dir}); err != nil {
		t.Fatal(err)
	}
	// q1 opens the file afresh and counts triangles, the retry layer on.
	q1 := func() (*DB, uint64, error) {
		db, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		eng, err := db.NewEngine(Options{Retry: &RetryPolicy{Sleep: func(time.Duration) {}}})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		n, err := eng.Count(Triangle())
		return db, n, err
	}
	if db, n, err := q1(); err != nil || n != 1018 || db.NumPages() < 96 {
		t.Fatalf("pristine file of %d pages: q1 = %d (%v), want 1018 on 96 pages or more", db.NumPages(), n, err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		damage func(img []byte) // page p lives at pageSize × (p + 1): the superblock takes the first frame
	}{
		{"page 93's image read as page 94", func(img []byte) { copy(img[pageSize*95:pageSize*96], img[pageSize*94:pageSize*95]) }},
		{"page 94's records renamed one vertex up", func(img []byte) {
			pg := img[pageSize*95 : pageSize*96]
			for i := range int(binary.LittleEndian.Uint16(pg[4:])) {
				off := binary.LittleEndian.Uint16(pg[pageSize-4*(i+1):])
				binary.LittleEndian.PutUint32(pg[off:], binary.LittleEndian.Uint32(pg[off:])+1)
			}
			binary.LittleEndian.PutUint32(pg[8:], 0) // the checksum covers the page with its own field zeroed
			binary.LittleEndian.PutUint32(pg[8:], crc32.ChecksumIEEE(pg))
		}},
	} {
		img := slices.Clone(pristine)
		c.damage(img)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		db, n, err := q1()
		if ce, ok := IsCorrupt(err); !ok || ce.Page != 94 || IsTransient(err) {
			t.Fatalf("q1 with %s: count %d, err %v; want a permanent corruption of page 94", c.name, n, err)
		}
		if ce, ok := IsCorrupt(db.Verify()); !ok || ce.Page != 94 {
			t.Fatalf("Verify with %s: %v, want page 94 corrupt", c.name, db.Verify())
		}
	}
}

// TestKarateClubGolden anchors the whole pipeline on a well-known public
// graph: Zachary's karate club has 34 vertices, 78 edges, and exactly 45
// triangles — an external ground truth independent of our own reference
// enumerator. The remaining queries are cross-checked internally.
func TestKarateClubGolden(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "karate.db")
	stats, err := BuildFromEdgeFile(dbPath, "testdata/karate.txt", BuildOptions{PageSize: 256, TempDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumVertices != 34 || stats.NumEdges != 78 {
		t.Fatalf("karate club: %d vertices, %d edges (want 34, 78)", stats.NumVertices, stats.NumEdges)
	}
	db, err := Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	eng, err := db.NewEngine(Options{Threads: 2, BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	triangles, err := eng.Count(Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if triangles != 45 {
		t.Fatalf("karate club triangles = %d, want 45 (published ground truth)", triangles)
	}
	// Remaining catalog queries against the in-memory reference.
	edges := readEdges(t, "testdata/karate.txt")
	for _, q := range PaperQueries()[1:] {
		got, err := eng.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CountInMemory(34, edges, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("karate %s: %d, want %d", q.Name(), got, want)
		}
	}
}

// TestMetricsEndpoint starts an engine with a live metrics endpoint, runs a
// query, and scrapes /metrics and /debug/vars over HTTP like a Prometheus
// server would.
func TestMetricsEndpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 100
	edges := randomEdges(rng, n, 500)
	db := buildAndOpen(t, n, edges, BuildOptions{PageSize: 256})
	eng, err := db.NewEngine(Options{Threads: 2, BufferFrames: 24, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	addr := eng.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty with MetricsAddr option set")
	}
	if _, err := eng.Count(Triangle()); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, name := range []string{"dualsim_pages_read_total", "dualsim_windows_total"} {
		re := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`)
		m := re.FindStringSubmatch(metrics)
		if m == nil {
			t.Fatalf("/metrics missing %s:\n%s", name, metrics)
		}
		if m[1] == "0" {
			t.Errorf("%s = 0 after a run", name)
		}
	}

	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(get("/debug/vars")), &snap); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if snap.Counters["dualsim_runs_total"] != 1 {
		t.Errorf("/debug/vars runs_total = %d, want 1", snap.Counters["dualsim_runs_total"])
	}

	// The snapshot accessor matches the scrape.
	if eng.Metrics().Counters["dualsim_pages_read_total"] == 0 {
		t.Error("Engine.Metrics() pages read = 0")
	}
}

// TestTraceWriterOption checks the public TraceWriter option produces a
// parseable JSONL lifecycle trace.
func TestTraceWriterOption(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 100
	edges := randomEdges(rng, n, 500)
	db := buildAndOpen(t, n, edges, BuildOptions{PageSize: 256})
	var buf bytes.Buffer
	res, err := db.Enumerate(Triangle(), Options{Threads: 2, BufferFrames: 16, TraceWriter: &buf}, func(Embedding) {})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("corrupt trace line: %v", err)
		}
		kinds = append(kinds, e.Event)
	}
	if len(kinds) == 0 || kinds[0] != "run_start" || kinds[len(kinds)-1] != "run_end" {
		t.Fatalf("trace = %v, want run_start ... run_end", kinds)
	}
	if res.Metrics == nil || res.Metrics.Counters["dualsim_embeddings_total"] != res.Count {
		t.Errorf("metrics snapshot inconsistent with result: %+v", res.Metrics)
	}
}

// TestNewServerRejectsEngineSinks: the engine template of a ServerConfig may
// not set the sinks a Server has its own equivalent of — a per-engine
// tracer would shadow ServerConfig.TraceWriter, progress would print for
// every served run — and the refusal names the equivalent.
func TestNewServerRejectsEngineSinks(t *testing.T) {
	db := buildAndOpen(t, 50, randomEdges(rand.New(rand.NewSource(7)), 50, 200), BuildOptions{PageSize: 256})
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"MetricsAddr", Options{MetricsAddr: "127.0.0.1:0"}, "GET /metrics"},
		{"TraceWriter", Options{TraceWriter: io.Discard}, "ServerConfig.TraceWriter"},
		{"ProgressInterval", Options{ProgressInterval: time.Second}, "GET /stats"},
		{"ProgressWriter", Options{ProgressWriter: io.Discard}, "GET /stats"},
	} {
		srv, err := db.NewServer(ServerConfig{Engines: 1, Engine: tc.opts})
		if err == nil {
			srv.Close()
			t.Errorf("Engine.%s set: NewServer accepted it", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "Engine."+tc.name) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Engine.%s set: error %q does not name the field and %s", tc.name, err, tc.want)
		}
	}
	srv, err := db.NewServer(ServerConfig{Engines: 1, TraceWriter: io.Discard, Engine: Options{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
}

func readEdges(t *testing.T, path string) [][2]VertexID {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]VertexID
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var u, v uint32
		if _, err := fmt.Sscanf(line, "%d %d", &u, &v); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		out = append(out, [2]VertexID{VertexID(u), VertexID(v)})
	}
	return out
}
