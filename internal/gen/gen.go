// Package gen provides deterministic synthetic graph generators used as
// stand-ins for the paper's real-world datasets (offline reproduction
// cannot download WebGoogle/WikiTalk/.../Yahoo): Chung-Lu power-law graphs
// for social networks, R-MAT for web graphs, Erdős–Rényi for low-clustering
// citation-like graphs, Barabási–Albert preferential attachment for dense
// community graphs, and bipartite graphs (which guarantee the paper's
// "no q4 solutions on Wikipedia" behavior).
package gen

import (
	"math"
	"math/rand"
	"sort"

	"dualsim/internal/graph"
)

// ErdosRenyi returns a random graph with n vertices and about m edges
// (duplicates collapse).
func ErdosRenyi(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]graph.VertexID, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]graph.VertexID{
			graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)),
		})
	}
	return graph.MustNewGraph(n, edges)
}

// ChungLu returns a power-law graph: vertex i has expected weight
// proportional to (i+1)^(-1/(exponent-1)), and m edges are sampled with
// endpoint probability proportional to weight.
func ChungLu(n, m int, exponent float64, seed int64) *graph.Graph {
	if exponent <= 1.5 {
		exponent = 1.5
	}
	rng := rand.New(rand.NewSource(seed))
	alpha := 1 / (exponent - 1)
	cum := make([]float64, n+1)
	for i := 0; i < n; i++ {
		cum[i+1] = cum[i] + math.Pow(float64(i+1), -alpha)
	}
	total := cum[n]
	sample := func() graph.VertexID {
		x := rng.Float64() * total
		idx := sort.SearchFloat64s(cum, x)
		if idx > 0 {
			idx--
		}
		if idx >= n {
			idx = n - 1
		}
		return graph.VertexID(idx)
	}
	edges := make([][2]graph.VertexID, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]graph.VertexID{sample(), sample()})
	}
	return graph.MustNewGraph(n, edges)
}

// BarabasiAlbert grows a graph by preferential attachment: each new vertex
// attaches k edges to existing vertices with probability proportional to
// degree.
func BarabasiAlbert(n, k int, seed int64) *graph.Graph {
	if k < 1 {
		k = 1
	}
	if n < k+1 {
		n = k + 1
	}
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]graph.VertexID
	// repeated-endpoint list: vertex appears once per incident edge.
	targets := make([]graph.VertexID, 0, 2*n*k)
	// seed clique of k+1 vertices
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(i), graph.VertexID(j)})
			targets = append(targets, graph.VertexID(i), graph.VertexID(j))
		}
	}
	for v := k + 1; v < n; v++ {
		chosen := map[graph.VertexID]bool{}
		// Keep insertion order so the repeated-endpoint list (and hence the
		// whole generation) is deterministic for a given seed.
		var picked []graph.VertexID
		for len(chosen) < k {
			w := targets[rng.Intn(len(targets))]
			if int(w) == v || chosen[w] {
				continue
			}
			chosen[w] = true
			picked = append(picked, w)
		}
		for _, w := range picked {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(v), w})
			targets = append(targets, graph.VertexID(v), w)
		}
	}
	return graph.MustNewGraph(n, edges)
}

// RMAT samples m edges from the recursive-matrix distribution with
// quadrant probabilities (a, b, c, implicit d) over 2^scale vertices —
// the web-graph-like generator.
func RMAT(scale uint, m int, a, b, c float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	edges := make([][2]graph.VertexID, 0, m)
	for i := 0; i < m; i++ {
		var u, v int
		for level := 0; level < int(scale); level++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left
			case r < a+b:
				v |= 1 << uint(level)
			case r < a+b+c:
				u |= 1 << uint(level)
			default:
				u |= 1 << uint(level)
				v |= 1 << uint(level)
			}
		}
		edges = append(edges, [2]graph.VertexID{graph.VertexID(u), graph.VertexID(v)})
	}
	return graph.MustNewGraph(n, edges)
}

// Bipartite returns a random bipartite graph with parts of size n1 and n2
// and about m cross edges. It contains no odd cycle, so triangle-bearing
// queries have zero matches.
func Bipartite(n1, n2, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]graph.VertexID, 0, m)
	for i := 0; i < m; i++ {
		u := graph.VertexID(rng.Intn(n1))
		v := graph.VertexID(n1 + rng.Intn(n2))
		edges = append(edges, [2]graph.VertexID{u, v})
	}
	return graph.MustNewGraph(n1+n2, edges)
}

// SampleVertices returns the induced subgraph on a uniform random fraction
// of g's vertices, compactly relabeled — the paper's 20%..100% Friendster
// scaling methodology ([24]).
func SampleVertices(g *graph.Graph, frac float64, seed int64) *graph.Graph {
	if frac >= 1 {
		return g
	}
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	keep := make([]int32, n) // new ID + 1, 0 = dropped
	next := int32(0)
	for v := 0; v < n; v++ {
		if rng.Float64() < frac {
			next++
			keep[v] = next
		}
	}
	if next == 0 {
		return graph.MustNewGraph(1, nil)
	}
	var edges [][2]graph.VertexID
	for v := 0; v < n; v++ {
		if keep[v] == 0 {
			continue
		}
		for _, w := range g.Adj(graph.VertexID(v)) {
			if graph.VertexID(v) < w && keep[w] != 0 {
				edges = append(edges, [2]graph.VertexID{
					graph.VertexID(keep[v] - 1), graph.VertexID(keep[w] - 1),
				})
			}
		}
	}
	return graph.MustNewGraph(int(next), edges)
}

// PlantedHubs returns a skewed-degree fixture: a sparse ring-with-chords
// background of n-hubs vertices plus hubs planted high-degree vertices,
// each wired to about span random background vertices and to every other
// hub. After degree reordering the hubs occupy the top of the vertex order,
// concentrating enumeration work in a narrow candidate range — the
// adversarial case for static work partitioning and for linear-merge
// intersections (hub adjacency lists dwarf background ones).
func PlantedHubs(n, hubs, span int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	base := n - hubs
	edges := make([][2]graph.VertexID, 0, base+hubs*span)
	for v := 0; v < base; v++ {
		edges = append(edges, [2]graph.VertexID{graph.VertexID(v), graph.VertexID((v + 1) % base)})
		if v%5 == 0 {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(v), graph.VertexID(rng.Intn(base))})
		}
	}
	for h := 0; h < hubs; h++ {
		hv := graph.VertexID(base + h)
		for i := 0; i < span; i++ {
			edges = append(edges, [2]graph.VertexID{hv, graph.VertexID(rng.Intn(base))})
		}
		for h2 := h + 1; h2 < hubs; h2++ {
			edges = append(edges, [2]graph.VertexID{hv, graph.VertexID(base + h2)})
		}
	}
	return graph.MustNewGraph(n, edges)
}
