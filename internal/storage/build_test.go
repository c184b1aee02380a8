package storage

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dualsim/internal/graph"
)

func buildTemp(t *testing.T, g *graph.Graph, opt BuildOptions) (*DB, *BuildStats) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")
	if opt.TempDir == "" {
		opt.TempDir = dir
	}
	stats, err := BuildFromGraph(path, g, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db, stats
}

func randomTestGraph(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([][2]graph.VertexID, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]graph.VertexID{
			graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)),
		})
	}
	return graph.MustNewGraph(n, edges)
}

func TestBuildAndOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomTestGraph(rng, 100, 300)
	db, stats := buildTemp(t, g, BuildOptions{PageSize: 256})
	if db.NumVertices() != 100 {
		t.Fatalf("NumVertices = %d", db.NumVertices())
	}
	if db.NumEdges() != uint64(g.NumEdges()) {
		t.Fatalf("NumEdges = %d, want %d", db.NumEdges(), g.NumEdges())
	}
	if stats.NumPages != db.NumPages() || stats.NumPages == 0 {
		t.Fatalf("pages: stats=%d db=%d", stats.NumPages, db.NumPages())
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	// The reloaded graph must be isomorphic: same occurrence counts.
	rg, err := db.LoadGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range graph.PaperQueries() {
		a := graph.CountOccurrences(g, q)
		b := graph.CountOccurrences(rg, q)
		if a != b {
			t.Fatalf("%s: count %d on disk vs %d in memory", q.Name(), b, a)
		}
	}
}

// TestBuildPageSizeLimit: slot offsets and lengths are uint16, so a page of
// 64 KiB is the largest whose every byte a slot can address. Build writes and
// reads back full pages of exactly that size, and refuses a larger one rather
// than write a file no reader can parse.
func TestBuildPageSizeLimit(t *testing.T) {
	g := randomTestGraph(rand.New(rand.NewSource(13)), 2000, 20000)
	for _, compress := range []bool{false, true} {
		db, _ := buildTemp(t, g, BuildOptions{PageSize: 65536, Compress: compress})
		if err := db.VerifyIntegrity(); err != nil {
			t.Fatalf("compress=%v, 64 KiB pages: %v", compress, err)
		}
		if _, err := db.LoadGraph(); err != nil {
			t.Fatalf("compress=%v, 64 KiB pages: %v", compress, err)
		}
		dir := t.TempDir()
		_, err := BuildFromGraph(filepath.Join(dir, "big.db"), g, BuildOptions{PageSize: 131072, Compress: compress, TempDir: dir})
		if err == nil || !strings.Contains(err.Error(), "65536") {
			t.Fatalf("compress=%v, 128 KiB pages: Build returned %v, want an error naming the 65536-byte limit", compress, err)
		}
	}
}

func TestBuildDegreeOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomTestGraph(rng, 80, 200)
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 256})
	for v := 1; v < db.NumVertices(); v++ {
		if db.Degree(graph.VertexID(v)) < db.Degree(graph.VertexID(v-1)) {
			t.Fatalf("degree order violated at %d: %d < %d", v,
				db.Degree(graph.VertexID(v)), db.Degree(graph.VertexID(v-1)))
		}
	}
}

func TestBuildPageOfMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomTestGraph(rng, 120, 500)
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 128})
	for v := 1; v < db.NumVertices(); v++ {
		if db.PageOf(graph.VertexID(v)) < db.PageOf(graph.VertexID(v-1)) {
			t.Fatalf("Lemma 1 violated: P(%d)=%d < P(%d)=%d", v,
				db.PageOf(graph.VertexID(v)), v-1, db.PageOf(graph.VertexID(v-1)))
		}
	}
}

func TestBuildAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomTestGraph(rng, 60, 150)
	rg, perm := graph.ReorderByDegree(g)
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 256})
	_ = perm
	for v := 0; v < db.NumVertices(); v++ {
		adj, err := adjacencyOf(db, graph.VertexID(v))
		if err != nil {
			t.Fatalf("Adjacency(%d): %v", v, err)
		}
		want := rg.Adj(graph.VertexID(v))
		if len(adj) != len(want) {
			t.Fatalf("vertex %d: adjacency %v, want %v", v, adj, want)
		}
		for i := range adj {
			if adj[i] != want[i] {
				t.Fatalf("vertex %d: adjacency %v, want %v", v, adj, want)
			}
		}
	}
}

func TestBuildLargeAdjacencySpansPages(t *testing.T) {
	// A star with a hub of degree 200 on 64-byte pages (max 9 entries/page)
	// forces multi-page sublists.
	var edges [][2]graph.VertexID
	for i := 1; i <= 200; i++ {
		edges = append(edges, [2]graph.VertexID{0, graph.VertexID(i)})
	}
	g := graph.MustNewGraph(201, edges)
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 64})
	hub := graph.VertexID(200) // hub has max degree, so highest new ID
	if db.Degree(hub) != 200 {
		t.Fatalf("hub degree = %d", db.Degree(hub))
	}
	first, last := db.SpanOf(hub)
	if last <= first {
		t.Fatalf("hub should span multiple pages: [%d,%d]", first, last)
	}
	adj, err := adjacencyOf(db, hub)
	if err != nil {
		t.Fatal(err)
	}
	if len(adj) != 200 {
		t.Fatalf("hub adjacency %d entries", len(adj))
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Continuation flags: first chunk not continuation, later chunks are.
	sawCont := false
	for pid := first; pid <= last; pid++ {
		p, err := db.ReadPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range p.Records {
			if r.Vertex == hub && r.Continuation {
				sawCont = true
			}
		}
	}
	if !sawCont {
		t.Fatal("no continuation record found for hub")
	}
}

func TestBuildIsolatedVertices(t *testing.T) {
	// Vertices 5..9 have no edges.
	g := graph.MustNewGraph(10, [][2]graph.VertexID{{0, 1}, {1, 2}, {3, 4}})
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 128})
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	iso := 0
	for v := 0; v < db.NumVertices(); v++ {
		if db.Degree(graph.VertexID(v)) == 0 {
			iso++
			if adj, err := adjacencyOf(db, graph.VertexID(v)); err != nil || len(adj) != 0 {
				t.Fatalf("isolated vertex %d: adj=%v err=%v", v, adj, err)
			}
		}
	}
	if iso != 5 {
		t.Fatalf("isolated vertices = %d, want 5", iso)
	}
}

func TestBuildMultiRunExternalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomTestGraph(rng, 200, 1000)
	db, stats := buildTemp(t, g, BuildOptions{PageSize: 256, RunSize: 128})
	if stats.SortRuns < 2 {
		t.Fatalf("expected multiple sort runs, got %d", stats.SortRuns)
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	rg, err := db.LoadGraph()
	if err != nil {
		t.Fatal(err)
	}
	if rg.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d, want %d", rg.NumEdges(), g.NumEdges())
	}
}

func TestBuildSkipReorder(t *testing.T) {
	g := graph.MustNewGraph(4, [][2]graph.VertexID{{0, 1}, {0, 2}, {0, 3}})
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 128, SkipReorder: true})
	// With SkipReorder the hub keeps ID 0.
	if db.Degree(0) != 3 {
		t.Fatalf("Degree(0) = %d, want 3 (no reorder)", db.Degree(0))
	}
}

func TestBuildAppendFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomTestGraph(rng, 100, 400)
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 256, AppendFraction: 0.05})
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	rg, err := db.LoadGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4()} {
		if a, b := graph.CountOccurrences(g, q), graph.CountOccurrences(rg, q); a != b {
			t.Fatalf("%s: %d != %d with AppendFraction", q.Name(), b, a)
		}
	}
}

func TestFileSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.txt")
	content := "# comment\n0 1\n1 2\n\n2 3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	n, m, err := ScanEdgeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || m != 3 {
		t.Fatalf("scan: n=%d m=%d", n, m)
	}
	src := NewFileSource(path, n)
	defer src.Close()
	var got [][2]graph.VertexID
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	for {
		u, v, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, [2]graph.VertexID{u, v})
	}
	want := [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
	// Second pass after Reset.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if u, v, err := src.Next(); err != nil || u != 0 || v != 1 {
		t.Fatalf("after reset: (%d,%d) err=%v", u, v, err)
	}
}

func TestFileSourceMalformed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(path, []byte("0 x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := NewFileSource(path, 2)
	defer src.Close()
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.Next(); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing.db")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.db")
	if err := os.WriteFile(bad, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Error("zeroed file accepted")
	}
}

func TestReadPageErrors(t *testing.T) {
	g := graph.MustNewGraph(4, [][2]graph.VertexID{{0, 1}, {2, 3}})
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 128})
	if _, err := db.ReadPage(PageID(db.NumPages())); err == nil {
		t.Error("out-of-range page accepted")
	}
	if err := db.ReadPageInto(0, make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestBuildTruncatedFileDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.db")
	rng := rand.New(rand.NewSource(3))
	g := randomTestGraph(rng, 50, 150)
	if _, err := BuildFromGraph(path, g, BuildOptions{PageSize: 256, TempDir: dir}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		return // rejected at open: fine
	}
	defer db.Close()
	if err := db.VerifyIntegrity(); err == nil {
		t.Error("truncated database passed integrity check")
	}
}

func TestPageGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomTestGraph(rng, 60, 200)
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 128})
	pg, err := db.PageGraph()
	if err != nil {
		t.Fatal(err)
	}
	if len(pg) != db.NumPages() {
		t.Fatalf("page graph size %d, want %d", len(pg), db.NumPages())
	}
	// Every adjacency target must be a valid page.
	for pid, adj := range pg {
		for _, q := range adj {
			if int(q) >= db.NumPages() {
				t.Fatalf("page %d links to invalid page %d", pid, q)
			}
		}
	}
}

func TestDBStats(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomTestGraph(rng, 150, 800)
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 256})
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages != db.NumPages() || st.PageSize != 256 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Records < db.NumVertices() {
		t.Errorf("records %d < vertices %d", st.Records, db.NumVertices())
	}
	if st.FillFactor <= 0 || st.FillFactor > 1.05 {
		t.Errorf("fill factor %.2f out of range", st.FillFactor)
	}
}

// adjacencyOf reads v's full adjacency list the slow, obviously correct way
// — every page of its span, every record naming v, checked against the
// directory's degree — as the reference the builder and the compactor are
// tested against.
func adjacencyOf(db *DB, v graph.VertexID) ([]graph.VertexID, error) {
	first, last := db.SpanOf(v)
	var out []graph.VertexID
	for pid := first; pid <= last; pid++ {
		p, err := db.ReadPage(pid)
		if err != nil {
			return nil, err
		}
		for _, r := range p.Records {
			if r.Vertex == v {
				out = append(out, r.Adj...)
			}
		}
	}
	if len(out) != db.Degree(v) {
		return nil, fmt.Errorf("storage: vertex %d adjacency %d entries, directory says %d", v, len(out), db.Degree(v))
	}
	return out, nil
}
