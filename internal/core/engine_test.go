package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"dualsim/internal/graph"
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

// runOnce runs q over g built with pageSize; counts are the oracle's to
// check (TestDifferentialAllModes).
func runOnce(t *testing.T, g *graph.Graph, q *graph.Query, opts Options, pageSize int) *Result {
	t.Helper()
	e, err := NewEngine(buildDB(t, g, pageSize), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run(q)
	if err != nil {
		t.Fatalf("Run(%s): %v", q.Name(), err)
	}
	return res
}

func TestEngineInternalExternalSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	g := randomGraph(rng, 300, 2000)
	res := runOnce(t, g, graph.Triangle(), Options{Threads: 2, BufferFrames: 16}, 128)
	if res.Internal == 0 || res.External == 0 {
		t.Errorf("expected both internal (%d) and external (%d) subgraphs with a small buffer",
			res.Internal, res.External)
	}
}

func TestEngineIOStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	g := randomGraph(rng, 200, 1200)
	res := runOnce(t, g, graph.Triangle(), Options{Threads: 2, BufferFrames: 16}, 128)
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
	// Sanity: degree order means P(v) is monotone, so ascending vertex
	// windows imply ascending page requests.
	for v := 1; v < db.NumVertices(); v++ {
		prev, _ := db.SpanOf(graph.VertexID(v - 1))
		if first, _ := db.SpanOf(graph.VertexID(v)); first < prev {
			t.Fatal("P(v) not monotone")
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

// TestLargeCliqueTopology is the regression test for plans of K ≥ 9
// positions, whose position pairs once indexed Topology bits p·K+p′ that
// shifted out of the 64-bit word: a K-clique missing the edge {0, 1}, with 5
// leaves on each of 0 and 1 and 10 on 2, counted 10-cliques as 10 and
// 11-cliques as 1 on K11 (brute force 2 and 0), and 57 and 11 on K12 (21 and
// 2). Counts must equal brute force.
func TestLargeCliqueTopology(t *testing.T) {
	for _, n := range []int{11, 12} {
		var edges [][2]graph.VertexID
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if u != 0 || v != 1 {
					edges = append(edges, [2]graph.VertexID{graph.VertexID(u), graph.VertexID(v)})
				}
			}
		}
		leaf := graph.VertexID(n)
		for hub, leaves := range []int{5, 5, 10} {
			for i := 0; i < leaves; i++ {
				edges = append(edges, [2]graph.VertexID{graph.VertexID(hub), leaf})
				leaf++
			}
		}
		g := graph.MustNewGraph(int(leaf), edges)
		for _, k := range []int{10, 11} {
			q := graph.Clique(fmt.Sprintf("k%d", k), k)
			res := runOnce(t, g, q, Options{Threads: 2}, 4096)
			if want := graph.CountOccurrences(g, q); res.Count != want {
				t.Errorf("K%d minus an edge: %d %d-cliques, brute force %d", n, res.Count, k, want)
			}
		}
	}
}
