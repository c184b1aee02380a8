package core

import (
	"math/rand"

	"dualsim/internal/graph"
)

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
