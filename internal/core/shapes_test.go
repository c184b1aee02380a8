package core

import (
	"math/rand"
	"testing"

	"dualsim/internal/graph"
)

// extendedShapes are query graphs beyond the paper's q1-q5, chosen to
// exercise corner cases of the planner and engine: Cartesian-product
// forests (paths/stars with sparse red graphs), large automorphism groups
// (butterfly, K5), and asymmetric shapes (paw, kite, bull).
func extendedShapes() []*graph.Query {
	return []*graph.Query{
		graph.Path("path4", 4),
		graph.Path("path5", 5),
		graph.Star("star4", 4),
		graph.Cycle("cycle5", 5),
		graph.Cycle("cycle6", 6),
		graph.Clique("k5", 5),
		// Paw: triangle with a pendant vertex.
		graph.MustNewQuery("paw", 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}),
		// Bull: triangle with two pendant horns.
		graph.MustNewQuery("bull", 5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 4}}),
		// Butterfly: two triangles sharing one vertex (8 automorphisms).
		graph.MustNewQuery("butterfly", 5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}}),
		// Kite: diamond with a tail.
		graph.MustNewQuery("kite", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {2, 4}}),
		// Gem: path4 plus an apex adjacent to everything.
		graph.MustNewQuery("gem", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 0}, {4, 1}, {4, 2}, {4, 3}}),
	}
}

func TestEngineExtendedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	g := randomGraph(rng, 90, 450)
	db := buildDB(t, g, 256)
	rg, _ := graph.ReorderByDegree(g)
	for _, q := range extendedShapes() {
		e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 28})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Count(q)
		e.Close()
		if err != nil {
			t.Fatalf("%s: %v", q.Name(), err)
		}
		want := graph.CountOccurrences(rg, q)
		if got != want {
			t.Fatalf("%s: engine %d, brute force %d", q.Name(), got, want)
		}
	}
}

// randomConnectedQuery samples a connected simple query on n vertices: a
// random spanning tree plus random extra edges.
func randomConnectedQuery(rng *rand.Rand, n int) *graph.Query {
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{rng.Intn(v), v})
	}
	extra := rng.Intn(n)
	for i := 0; i < extra; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	return graph.MustNewQuery("rand", n, edges)
}
