package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/plan"
	"dualsim/internal/storage"
)

// The package's own tests pin numbers and contracts the differential oracle
// (oracle_test.go, package core_test) cannot see from outside: golden
// schedules, allocation gates, pure functions and lock-free read contracts.
// These are their fixtures.

// openBuilt builds g into a temp database with opts and opens it.
func openBuilt(t *testing.T, g *graph.Graph, opts storage.BuildOptions) *storage.DB {
	t.Helper()
	opts.TempDir = t.TempDir()
	path := filepath.Join(opts.TempDir, "g.db")
	if _, err := storage.BuildFromGraph(path, g, opts); err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// buildDB writes g to a temp database with the given page size.
func buildDB(t *testing.T, g *graph.Graph, pageSize int) *storage.DB {
	return openBuilt(t, g, storage.BuildOptions{PageSize: pageSize})
}

// buildCompressedDB is buildDB with delta-varint adjacency compression on.
func buildCompressedDB(t *testing.T, g *graph.Graph, pageSize int) *storage.DB {
	return openBuilt(t, g, storage.BuildOptions{PageSize: pageSize, Compress: true})
}

// buildDBOpts builds g without relabeling (SkipReorder), so the on-disk
// vertex IDs are exactly g's — the coordinate system the delta overlay
// mutates in.
func buildDBOpts(t *testing.T, g *graph.Graph, pageSize int, compress bool) *storage.DB {
	return openBuilt(t, g, storage.BuildOptions{PageSize: pageSize, SkipReorder: true, Compress: compress})
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

// randomConnectedQuery samples a connected simple query on n vertices: a
// random spanning tree plus random extra edges.
func randomConnectedQuery(rng *rand.Rand, n int) *graph.Query {
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{rng.Intn(v), v})
	}
	for i := rng.Intn(n); i > 0; i-- {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	return graph.MustNewQuery("rand", n, edges)
}

func mustPlan(t *testing.T, q *graph.Query) *plan.Plan {
	t.Helper()
	p, err := plan.Prepare(q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mutateRandom applies batches random edge mutations of the given kind
// ("insert", "delete", "mixed") to both the delta store and an in-memory
// edge-set oracle seeded from g.
func mutateRandom(t *testing.T, st *delta.Store, g *graph.Graph, rng *rand.Rand, batches int, kind string) *graph.Graph {
	t.Helper()
	n := g.NumVertices()
	edges := map[[2]graph.VertexID]bool{}
	for _, e := range g.EdgeList() {
		u, w := e[0], e[1]
		if u > w {
			u, w = w, u
		}
		edges[[2]graph.VertexID{u, w}] = true
	}
	for b := 0; b < batches; b++ {
		ops := make([]delta.Op, 1+rng.Intn(5))
		for i := range ops {
			u := graph.VertexID(rng.Intn(n))
			w := graph.VertexID((int(u) + 1 + rng.Intn(n-1)) % n)
			if u > w {
				u, w = w, u
			}
			ins := true
			switch kind {
			case "insert":
			case "delete":
				ins = false
			default:
				ins = rng.Intn(2) == 0
			}
			ops[i] = delta.Op{Insert: ins, U: u, V: w}
			if ins {
				edges[[2]graph.VertexID{u, w}] = true
			} else {
				delete(edges, [2]graph.VertexID{u, w})
			}
		}
		if _, err := st.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	var list [][2]graph.VertexID
	for e := range edges {
		list = append(list, e)
	}
	return graph.MustNewGraph(n, list)
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
