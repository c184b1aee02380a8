package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"dualsim/internal/graph"
	"dualsim/internal/plan"
	"dualsim/internal/rbi"
	"dualsim/internal/storage"
)

// buildDB writes g to a temp database with the given page size.
func buildDB(t *testing.T, g *graph.Graph, pageSize int) *storage.DB {
	t.Helper()
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

// buildCompressedDB is buildDB with delta-varint adjacency compression on.
func buildCompressedDB(t *testing.T, g *graph.Graph, pageSize int) *storage.DB {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "c.db")
	if _, err := storage.BuildFromGraph(path, g, storage.BuildOptions{PageSize: pageSize, TempDir: dir, Compress: true}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([][2]graph.VertexID, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]graph.VertexID{
			graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)),
		})
	}
	return graph.MustNewGraph(n, edges)
}

// runAndCheck compares the engine's count against brute force on the
// degree-reordered graph.
func runAndCheck(t *testing.T, g *graph.Graph, q *graph.Query, opts Options, pageSize int) *Result {
	t.Helper()
	db := buildDB(t, g, pageSize)
	e, err := NewEngine(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(q)
	if err != nil {
		t.Fatalf("Run(%s): %v", q.Name(), err)
	}
	rg, _ := graph.ReorderByDegree(g)
	want := graph.CountOccurrences(rg, q)
	if res.Count != want {
		t.Fatalf("%s: engine count %d (int=%d ext=%d), brute force %d [pageSize=%d frames=%d]",
			q.Name(), res.Count, res.Internal, res.External, want, pageSize, res.BufferFrames)
	}
	return res
}

func TestEngineTinyGraphs(t *testing.T) {
	complete := func(n int) *graph.Graph {
		var edges [][2]graph.VertexID
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, [2]graph.VertexID{graph.VertexID(i), graph.VertexID(j)})
			}
		}
		return graph.MustNewGraph(n, edges)
	}
	for _, q := range graph.PaperQueries() {
		res := runAndCheck(t, complete(6), q, Options{Threads: 2, BufferFrames: 64}, 128)
		if res.Count == 0 {
			t.Errorf("%s: expected matches in K6", q.Name())
		}
	}
}

func TestEngineMatchesBruteForceAcrossQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	g := randomGraph(rng, 150, 700)
	for _, q := range graph.PaperQueries() {
		runAndCheck(t, g, q, Options{Threads: 3, BufferFrames: 48}, 256)
	}
}

func TestEngineRandomizedCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	queries := append(graph.PaperQueries(),
		graph.Path("p4", 4), graph.Star("s3", 3), graph.Cycle("c5", 5),
		graph.MustNewQuery("edge", 2, [][2]int{{0, 1}}))
	for trial := 0; trial < 8; trial++ {
		n := 40 + rng.Intn(120)
		m := n * (1 + rng.Intn(6))
		g := randomGraph(rng, n, m)
		pageSize := []int{128, 256, 512}[trial%3]
		frames := 24 + rng.Intn(40)
		for _, q := range queries {
			runAndCheck(t, g, q, Options{Threads: 1 + rng.Intn(4), BufferFrames: frames}, pageSize)
		}
	}
}

func TestEngineTinyBufferStress(t *testing.T) {
	// A buffer barely above the floor forces many windows per level and
	// exercises the merged-window bookkeeping.
	rng := rand.New(rand.NewSource(55))
	g := randomGraph(rng, 200, 1400)
	for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4(), graph.House()} {
		res := runAndCheck(t, g, q, Options{Threads: 2, BufferFrames: 14}, 128)
		if res.Level1Windows < 2 {
			t.Errorf("%s: expected multiple level-1 windows with a tiny buffer, got %d",
				q.Name(), res.Level1Windows)
		}
	}
}

func TestEngineLargeBufferSingleWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	g := randomGraph(rng, 100, 500)
	res := runAndCheck(t, g, graph.Triangle(), Options{Threads: 2, BufferFrames: 4096}, 256)
	if res.Level1Windows != 1 {
		t.Errorf("big buffer should need one level-1 window, got %d", res.Level1Windows)
	}
	if res.External != 0 {
		t.Errorf("single-window run found %d external subgraphs, want 0", res.External)
	}
}

func TestEngineInternalExternalSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	g := randomGraph(rng, 300, 2000)
	res := runAndCheck(t, g, graph.Triangle(), Options{Threads: 2, BufferFrames: 16}, 128)
	if res.Internal == 0 || res.External == 0 {
		t.Errorf("expected both internal (%d) and external (%d) subgraphs with a small buffer",
			res.Internal, res.External)
	}
}

func TestEngineHighSkewGraph(t *testing.T) {
	// Power-law-ish: hub-heavy graph exercises multi-page adjacency lists.
	rng := rand.New(rand.NewSource(58))
	var edges [][2]graph.VertexID
	n := 150
	for i := 1; i < n; i++ {
		edges = append(edges, [2]graph.VertexID{0, graph.VertexID(i)}) // hub
		for j := 0; j < 3; j++ {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(i), graph.VertexID(rng.Intn(n))})
		}
	}
	g := graph.MustNewGraph(n, edges)
	for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4(), graph.House()} {
		runAndCheck(t, g, q, Options{Threads: 4, BufferFrames: 40}, 128)
	}
}

func TestEngineBipartiteNoOddQueries(t *testing.T) {
	// Bipartite data: zero triangles/cliques/houses, plenty of squares.
	var edges [][2]graph.VertexID
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if (i+j)%3 != 0 {
				edges = append(edges, [2]graph.VertexID{graph.VertexID(i), graph.VertexID(20 + j)})
			}
		}
	}
	g := graph.MustNewGraph(40, edges)
	db := buildDB(t, g, 256)
	e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4(), graph.House()} {
		got, err := e.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("%s on bipartite graph: %d, want 0", q.Name(), got)
		}
	}
	sq, err := e.Count(graph.Square())
	if err != nil {
		t.Fatal(err)
	}
	rg, _ := graph.ReorderByDegree(g)
	if want := graph.CountOccurrences(rg, graph.Square()); sq != want {
		t.Errorf("squares = %d, want %d", sq, want)
	}
}

func TestEngineThreadCountsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	g := randomGraph(rng, 180, 1100)
	db := buildDB(t, g, 256)
	var counts []uint64
	for _, threads := range []int{1, 2, 4, 8} {
		e, err := NewEngine(db, Options{Threads: threads, BufferFrames: 30})
		if err != nil {
			t.Fatal(err)
		}
		c, err := e.Count(graph.Clique4())
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, c)
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("thread counts disagree: %v", counts)
		}
	}
}

func TestEngineOnMatchEmitsValidEmbeddings(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	g := randomGraph(rng, 80, 400)
	rg, _ := graph.ReorderByDegree(g)
	q := graph.House()
	po := graph.SymmetryBreak(q)

	var mu sync.Mutex
	var seen [][]graph.VertexID
	db := buildDB(t, g, 256)
	e, err := NewEngine(db, Options{Threads: 3, BufferFrames: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p, err := plan.Prepare(q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunSpecContext(context.Background(), RunSpec{Plan: p, OnRows: func(rows []graph.VertexID, width int) {
		cp := slices.Clone(rows)
		mu.Lock()
		for ; len(cp) > 0; cp = cp[width:] {
			seen = append(seen, cp[:width])
		}
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(seen)) != res.Count {
		t.Fatalf("OnRows delivered %d rows, count %d", len(seen), res.Count)
	}
	// Validate each embedding and global uniqueness.
	keys := map[string]bool{}
	for _, m := range seen {
		for _, e := range q.Edges() {
			if !rg.HasEdge(m[e[0]], m[e[1]]) {
				t.Fatalf("embedding %v misses edge %v", m, e)
			}
		}
		for _, c := range po {
			if !(m[c.Lo] < m[c.Hi]) {
				t.Fatalf("embedding %v violates %v", m, c)
			}
		}
		var key string
		for _, v := range m {
			key += string(rune(v)) + ","
		}
		if keys[key] {
			t.Fatalf("duplicate embedding %v", m)
		}
		keys[key] = true
	}
}

func TestEngineMVCAndAblationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := randomGraph(rng, 120, 700)
	db := buildDB(t, g, 256)
	rg, _ := graph.ReorderByDegree(g)
	for _, q := range []*graph.Query{graph.Square(), graph.House()} {
		want := graph.CountOccurrences(rg, q)
		for _, opts := range []Options{
			{Threads: 2, BufferFrames: 32, CoverMode: rbi.MVC},
			{Threads: 2, BufferFrames: 32, EqualAllocation: true},
		} {
			e, err := NewEngine(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Count(q)
			e.Close()
			if err != nil {
				t.Fatalf("%s opts %+v: %v", q.Name(), opts, err)
			}
			if got != want {
				t.Fatalf("%s opts %+v: count %d, want %d", q.Name(), opts, got, want)
			}
		}
		// The Cartesian-maximizing matching order is a planner knob only:
		// the engine must count the same from a plan prepared that way.
		p, err := plan.Prepare(q, plan.Options{WorstOrder: true})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 32})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunPlanContext(context.Background(), p)
		e.Close()
		if err != nil {
			t.Fatalf("%s worst order: %v", q.Name(), err)
		}
		if res.Count != want {
			t.Fatalf("%s worst order: count %d, want %d", q.Name(), res.Count, want)
		}
	}
}

func TestEngineRepeatedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	g := randomGraph(rng, 100, 600)
	db := buildDB(t, g, 256)
	e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	first, err := e.Count(graph.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := e.Count(graph.Triangle())
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("run %d: count %d, want %d", i, got, first)
		}
	}
	// Different query on the same engine.
	if _, err := e.Count(graph.House()); err != nil {
		t.Fatal(err)
	}
}

func TestEngineIOStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	g := randomGraph(rng, 200, 1200)
	res := runAndCheck(t, g, graph.Triangle(), Options{Threads: 2, BufferFrames: 16}, 128)
	if res.IO.PhysicalReads == 0 || res.IO.LogicalReads == 0 {
		t.Errorf("I/O stats empty: %+v", res.IO)
	}
	if res.ExecTime <= 0 || res.PrepTime <= 0 {
		t.Errorf("timings missing: exec=%v prep=%v", res.ExecTime, res.PrepTime)
	}
}

func TestEngineSmallBufferReadsMoreThanLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	g := randomGraph(rng, 400, 3200)
	db := buildDB(t, g, 128)
	reads := func(frames int) uint64 {
		e, err := NewEngine(db, Options{Threads: 2, BufferFrames: frames})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		res, err := e.Run(graph.Clique4())
		if err != nil {
			t.Fatal(err)
		}
		return res.IO.PhysicalReads
	}
	small := reads(14)
	large := reads(4 * db.NumPages())
	if small <= large {
		t.Errorf("small buffer reads (%d) should exceed large buffer reads (%d)", small, large)
	}
}

func TestSliceRange(t *testing.T) {
	list := []graph.VertexID{2, 4, 6, 8, 10}
	got := sliceRange(list, 4, 8)
	if len(got) != 3 || got[0] != 4 || got[2] != 8 {
		t.Fatalf("sliceRange = %v", got)
	}
	if got := sliceRange(list, 11, 20); len(got) != 0 {
		t.Fatalf("out-of-range slice = %v", got)
	}
	if got := sliceRange(list, 0, 1); len(got) != 0 {
		t.Fatalf("below-range slice = %v", got)
	}
}

func TestEnginePageSizeSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	g := randomGraph(rng, 120, 700)
	for _, ps := range []int{64, 128, 512, 2048} {
		runAndCheck(t, g, graph.Triangle(), Options{Threads: 2, BufferFrames: 32}, ps)
	}
}

func TestEngineDeterministicWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	g := randomGraph(rng, 150, 900)
	db := buildDB(t, g, 128)
	var w1 []int
	for i := 0; i < 2; i++ {
		e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 18})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(graph.House())
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		w1 = append(w1, res.Level1Windows)
	}
	if w1[0] != w1[1] {
		t.Errorf("window counts differ across runs: %v", w1)
	}
}

func TestMergedCandidatesOrdering(t *testing.T) {
	// Ensure the merged candidates feed windows in ascending page order,
	// which the sequential-scan claim depends on.
	rng := rand.New(rand.NewSource(67))
	g := randomGraph(rng, 200, 1000)
	db := buildDB(t, g, 128)
	e, err := NewEngine(db, Options{Threads: 1, BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(graph.Triangle()); err != nil {
		t.Fatal(err)
	}
	// Sanity: degree order means PageOf is monotone, so ascending vertex
	// windows imply ascending page requests.
	for v := 1; v < db.NumVertices(); v++ {
		if db.PageOf(graph.VertexID(v)) < db.PageOf(graph.VertexID(v-1)) {
			t.Fatal("PageOf not monotone")
		}
	}
	sortCheck := sort.SliceIsSorted(e.all, func(i, j int) bool { return e.all[i] < e.all[j] })
	if !sortCheck {
		t.Fatal("all-vertices slice not sorted")
	}
}

func TestIOWaitReported(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := randomGraph(rng, 200, 1200)
	db := buildDB(t, g, 128)
	e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 16, PerPageLatency: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(graph.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if res.IOWait <= 0 {
		t.Errorf("IOWait = %v, want > 0 with simulated latency", res.IOWait)
	}
	if res.IOWait > res.ExecTime {
		t.Errorf("IOWait %v exceeds ExecTime %v", res.IOWait, res.ExecTime)
	}
}

func TestEngineOnCompressedDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := randomGraph(rng, 200, 1300)
	dir := t.TempDir()
	path := filepath.Join(dir, "c.db")
	if _, err := storage.BuildFromGraph(path, g, storage.BuildOptions{PageSize: 256, TempDir: dir, Compress: true}); err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rg, _ := graph.ReorderByDegree(g)
	for _, q := range graph.PaperQueries() {
		e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 20})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Count(q)
		e.Close()
		if err != nil {
			t.Fatalf("%s: %v", q.Name(), err)
		}
		if want := graph.CountOccurrences(rg, q); got != want {
			t.Fatalf("%s on compressed db: %d, want %d", q.Name(), got, want)
		}
	}
}

func TestWindowsPerLevelReported(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	g := randomGraph(rng, 250, 1600)
	db := buildDB(t, g, 128)
	e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(graph.Clique4())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WindowsPerLevel) != res.Plan.K {
		t.Fatalf("WindowsPerLevel = %v, want %d levels", res.WindowsPerLevel, res.Plan.K)
	}
	if res.WindowsPerLevel[0] != res.Level1Windows {
		t.Fatalf("level-1 counts disagree: %v vs %d", res.WindowsPerLevel, res.Level1Windows)
	}
	// Middle levels iterate at least once per parent window; the last level
	// is not chopped at all — it streams, one pass per window above it.
	last := res.Plan.K - 1
	for l := 1; l < last; l++ {
		if res.WindowsPerLevel[l] < res.WindowsPerLevel[l-1] {
			t.Fatalf("windows should not shrink with depth above the last level: %v", res.WindowsPerLevel)
		}
	}
	if res.WindowsPerLevel[last] != res.WindowsPerLevel[last-1] {
		t.Fatalf("last-level passes %d, want one per window of the level above: %v",
			res.WindowsPerLevel[last], res.WindowsPerLevel)
	}
}
