package exp

import (
	"math"

	"dualsim/internal/baseline/ttj"
	"dualsim/internal/graph"
)

// EstimateTTJIntermediate applies the Erdős–Rényi estimation model of [20]
// (Lai et al.): the expected number of matches of a partial pattern P with
// v vertices and e edges in G(n, p) with p = 2|E|/(n(n-1)) is
// n^v * p^e / |Aut(P)|. The sum over non-final join rounds estimates the
// intermediate result volume. As the paper's Table 5 shows, the model's
// uniformity assumption misses the degree skew of real graphs.
func EstimateTTJIntermediate(g *graph.Graph, q *graph.Query) (float64, error) {
	twigs, err := ttj.Decompose(q)
	if err != nil {
		return 0, err
	}
	n := float64(g.NumVertices())
	e := float64(g.NumEdges())
	p := 2 * e / (n * (n - 1))

	matched := map[int]bool{}
	total := 0.0
	for round, twig := range twigs {
		matched[twig.Center] = true
		for _, l := range twig.Leaves {
			matched[l] = true
		}
		if round == len(twigs)-1 {
			break // final output is not intermediate
		}
		// Partial pattern: induced subgraph of q on the matched set,
		// restricted to edges covered so far; approximating with the
		// induced edge count is what [20] effectively does for left-deep
		// prefixes.
		var mask uint32
		for v := range matched {
			mask |= 1 << uint(v)
		}
		v := float64(len(matched))
		edges := float64(q.InducedEdgeCount(mask))
		aut := float64(graph.AutomorphismCount(inducedQuery(q, mask)))
		est := math.Pow(n, v) * math.Pow(p, edges) / aut
		total += est
	}
	return total, nil
}

// inducedQuery extracts the induced subgraph of q on the mask's vertices as
// a standalone query (relabeled compactly). Disconnected induced patterns
// fall back to the full query for the automorphism factor.
func inducedQuery(q *graph.Query, mask uint32) *graph.Query {
	var verts []int
	idx := map[int]int{}
	for v := 0; v < q.NumVertices(); v++ {
		if mask&(1<<uint(v)) != 0 {
			idx[v] = len(verts)
			verts = append(verts, v)
		}
	}
	var edges [][2]int
	for _, e := range q.Edges() {
		if mask&(1<<uint(e[0])) != 0 && mask&(1<<uint(e[1])) != 0 {
			edges = append(edges, [2]int{idx[e[0]], idx[e[1]]})
		}
	}
	sub, err := graph.NewQuery("induced", len(verts), edges)
	if err != nil {
		return q // disconnected prefix: approximate with the full query
	}
	return sub
}

// EstimatePSgLIntermediate applies the expansion model of [24] (Shao et
// al.): a partial instance over i query vertices expands to roughly
// d̄ (average degree) candidates for the next vertex, assuming every
// neighbor of the anchor can be mapped — the over-estimation the paper
// calls out, since some neighbors are already matched or fail edge checks.
func EstimatePSgLIntermediate(g *graph.Graph, q *graph.Query) float64 {
	n := float64(g.NumVertices())
	avgDeg := 2 * float64(g.NumEdges()) / n
	est := n // partial instances of size 1
	total := 0.0
	for i := 1; i < q.NumVertices(); i++ {
		total += est
		est *= avgDeg
	}
	return total
}
