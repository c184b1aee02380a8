package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dualsim/internal/gen"
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
		if d, prev := degreeOf(t, db, graph.VertexID(v)), degreeOf(t, db, graph.VertexID(v-1)); d < prev {
			t.Fatalf("degree order violated at %d: %d < %d", v, d, prev)
		}
	}
}

// TestBuildPageOfMonotone: P(v) is monotone in v (Lemma 1), and the
// page-first array names each page's first record and whether it continues
// the previous page's list.
func TestBuildPageOfMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomTestGraph(rng, 120, 500)
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 128})
	for v := 1; v < db.NumVertices(); v++ {
		prev, _ := db.SpanOf(graph.VertexID(v - 1))
		if first, _ := db.SpanOf(graph.VertexID(v)); first < prev {
			t.Fatalf("Lemma 1 violated: P(%d)=%d < P(%d)=%d", v, first, v-1, prev)
		}
	}
	for pid := PageID(0); int(pid) < db.NumPages(); pid++ {
		p, err := readPage(db, pid)
		if err != nil {
			t.Fatal(err)
		}
		v, cont := db.PageFirsts().First(pid)
		if _, c := p.Chunk(0); p.First() != v || c != cont {
			t.Fatalf("page %d begins with vertex %d (continuation %t), the page array says %d (%t)", pid, p.First(), c, v, cont)
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
		p, err := readPage(db, pid)
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := p.Slot(hub); ok {
			_, continuation := p.Chunk(i)
			sawCont = sawCont || continuation
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
		if degreeOf(t, db, graph.VertexID(v)) == 0 {
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
	if d := degreeOf(t, db, 0); d != 3 {
		t.Fatalf("degree of vertex 0 = %d, want 3 (no reorder)", d)
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

// TestOpenValidatesDirectory: Open refuses a superblock or page-first array
// it cannot trust — a page size outside [MinPageSize, MaxPageSize], pages or
// an array that overrun the file (checked before the array is allocated), a
// first page that is not vertex 0's start, entries that decrease or repeat
// other than as a hub's continuation, a vertex beyond the file's count, a
// vertex count the last page cannot hold — instead of handing readers a
// vertex whose pages do not exist.
func TestOpenValidatesDirectory(t *testing.T) {
	g := graph.MustNewGraph(6, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	dir := t.TempDir()
	pristine := filepath.Join(dir, "pristine.db")
	if _, err := BuildFromGraph(pristine, g, BuildOptions{PageSize: 64, TempDir: dir}); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}
	dirOffset := int(binary.LittleEndian.Uint64(image[32:]))
	if numPages := binary.LittleEndian.Uint32(image[24:]); numPages < 3 {
		t.Fatalf("fixture has %d pages, want 3 or more", numPages)
	}
	entry := func(p int, e uint32) func(img []byte) []byte {
		return func(img []byte) []byte { binary.LittleEndian.PutUint32(img[dirOffset+4*p:], e); return img }
	}
	for _, tc := range []struct {
		name string
		mut  func(img []byte) []byte
	}{
		{"page size above MaxPageSize", func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[8:], 2*MaxPageSize)
			return img
		}},
		{"page size 0", func(img []byte) []byte { binary.LittleEndian.PutUint32(img[8:], 0); return img }},
		{"truncated page array", func(img []byte) []byte { return img[:len(img)-5] }},
		{"page array past the file", func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[32:], uint64(len(img)))
			return img
		}},
		{"pages past the file", func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[24:], uint32(len(img)))
			return img
		}},
		{"vertex count beyond the last page", func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[12:], 1<<30)
			return img
		}},
		{"page 0 begins past vertex 0", entry(0, 1)},
		{"page 0 begins with a continuation", entry(0, contBit)},
		{"entries decrease", entry(2, 1|contBit)},
		{"a repeat that is not a continuation", entry(2, binary.LittleEndian.Uint32(image[dirOffset+4:]))},
		{"a vertex beyond the count", entry(2, 6)},
	} {
		path := filepath.Join(dir, "bad.db")
		if err := os.WriteFile(path, tc.mut(slices.Clone(image)), 0o644); err != nil {
			t.Fatal(err)
		}
		if db, err := Open(path); err == nil {
			db.Close()
			t.Errorf("%s: Open accepted the file", tc.name)
		}
	}
	db, err := Open(pristine)
	if err != nil {
		t.Fatalf("pristine file: %v", err)
	}
	db.Close()
}

// TestOpenAllocatesPerPage: Open reads the page-first array, one entry a
// page, and nothing a vertex. On a file of about 78 vertices a page it
// allocates at most 16 bytes a page beyond a constant for the file handle
// and the array's read buffer — a per-vertex directory would be 12 bytes a
// vertex, about 120 KB here.
func TestOpenAllocatesPerPage(t *testing.T) {
	db, _ := buildTemp(t, gen.ChungLu(10000, 50000, 2.8, 1), BuildOptions{PageSize: 4096})
	if perPage := db.NumVertices() / db.NumPages(); perPage < 50 {
		t.Fatalf("fixture: %d vertices on %d pages, want many vertices a page", db.NumVertices(), db.NumPages())
	}
	const opens = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < opens; i++ {
		o, err := Open(db.Path())
		if err != nil {
			t.Fatal(err)
		}
		o.Close()
	}
	runtime.ReadMemStats(&after)
	bytes, limit := (after.TotalAlloc-before.TotalAlloc)/opens, uint64(16*db.NumPages()+8192)
	t.Logf("Open allocates %d bytes on %d pages, %d vertices", bytes, db.NumPages(), db.NumVertices())
	if bytes > limit {
		t.Errorf("Open allocates %d bytes on a file of %d pages and %d vertices, want at most %d", bytes, db.NumPages(), db.NumVertices(), limit)
	}
}

// TestPageFirstsSpans: the cursor and SpanOf locate every list of files
// whose hubs start at a page's head, mid-page and on consecutive pages, as a
// scan of the pages' first records does, and MaxSpan is the longest span.
func TestPageFirstsSpans(t *testing.T) {
	for _, tc := range []struct {
		g        *graph.Graph
		pageSize int
		compress bool
	}{
		{gen.PlantedHubs(600, 4, 400, 38), 256, false},
		{gen.PlantedHubs(600, 4, 400, 38), 256, true},
		{gen.ChungLu(2000, 8000, 2.8, 1), 128, false},
	} {
		db, _ := buildTemp(t, tc.g, BuildOptions{PageSize: tc.pageSize, Compress: tc.compress})
		// The reference: every page's records, read one by one.
		first, last := make([]PageID, db.NumVertices()), make([]PageID, db.NumVertices())
		for pid := PageID(0); int(pid) < db.NumPages(); pid++ {
			p, err := readPage(db, pid)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < p.Slots(); i++ {
				v := p.First() + graph.VertexID(i)
				if _, continuation := p.Chunk(i); !continuation {
					first[v] = pid
				}
				last[v] = pid
			}
		}
		cur, maxSpan := db.PageFirsts().Cursor(), 0
		for v := graph.VertexID(0); int(v) < db.NumVertices(); v++ {
			f, l := cur.Span(v)
			if sf, sl := db.SpanOf(v); f != first[v] || l != last[v] || sf != f || sl != l {
				t.Fatalf("vertex %d: cursor [%d,%d], SpanOf [%d,%d], pages [%d,%d]", v, f, l, sf, sl, first[v], last[v])
			}
			maxSpan = max(maxSpan, int(l-f)+1)
		}
		if maxSpan < 2 || db.PageFirsts().MaxSpan() != maxSpan {
			t.Fatalf("MaxSpan %d, longest span %d", db.PageFirsts().MaxSpan(), maxSpan)
		}
	}
}

func TestReadPageErrors(t *testing.T) {
	g := graph.MustNewGraph(4, [][2]graph.VertexID{{0, 1}, {2, 3}})
	db, _ := buildTemp(t, g, BuildOptions{PageSize: 128})
	if err := db.ReadPageInto(PageID(db.NumPages()), make([]byte, db.PageSize())); err == nil {
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

// readPage reads and parses page pid as the file's readers do
// (ParsePageInto).
func readPage(db *DB, pid PageID) (*Page, error) {
	buf, p := make([]byte, db.PageSize()), &Page{}
	if err := db.ReadPageInto(pid, buf); err != nil {
		return nil, err
	}
	return p, ParsePageInto(p, buf, pid)
}

// adjacencyOf reads v's full adjacency list the slow, obviously correct way
// — every page of its span read on its own, each required to hold a record
// of v — as the reference the builder and the compactor are tested against.
func adjacencyOf(db *DB, v graph.VertexID) ([]graph.VertexID, error) {
	first, last := db.SpanOf(v)
	var out []graph.VertexID
	for pid := first; pid <= last; pid++ {
		p, err := readPage(db, pid)
		if err != nil {
			return nil, err
		}
		i, ok := p.Slot(v)
		if !ok {
			return nil, fmt.Errorf("storage: page %d of vertex %d's span [%d,%d] holds no record of it", pid, v, first, last)
		}
		list, _, _ := p.List(i)
		out = append(out, list...)
	}
	return out, nil
}

// degreeOf is the length of adjacencyOf(db, v).
func degreeOf(t *testing.T, db *DB, v graph.VertexID) int {
	t.Helper()
	adj, err := adjacencyOf(db, v)
	if err != nil {
		t.Fatal(err)
	}
	return len(adj)
}
