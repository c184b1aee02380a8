package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomConnectedQuery builds a random connected query with qn vertices: a
// random spanning tree plus a few extra edges.
func randomConnectedQuery(rng *rand.Rand, qn int) *Query {
	var edges [][2]int
	for v := 1; v < qn; v++ {
		edges = append(edges, [2]int{rng.Intn(v), v})
	}
	for i := 0; i < rng.Intn(qn+1); i++ {
		a, b := rng.Intn(qn), rng.Intn(qn)
		if a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	return MustNewQuery("rand", qn, edges)
}

// isomorphic decides query isomorphism with the existing brute-force
// machinery: p and q are isomorphic iff they have the same vertex and edge
// counts and q embeds injectively (edge-preserving) into p viewed as a data
// graph — with |V| and |E| equal, any such injection is an isomorphism.
func isomorphic(p, q *Query) bool {
	if p.NumVertices() != q.NumVertices() || p.NumEdges() != q.NumEdges() {
		return false
	}
	edges := make([][2]VertexID, 0, p.NumEdges())
	for _, e := range p.Edges() {
		edges = append(edges, [2]VertexID{VertexID(e[0]), VertexID(e[1])})
	}
	g := MustNewGraph(p.NumVertices(), edges)
	found := false
	BruteForceEnumerate(g, q, nil, func([]VertexID) bool {
		found = true
		return false
	})
	return found
}

// TestCanonicalCodeIffIsomorphic is the satellite property test: for random
// small query pairs, code equality must coincide exactly with isomorphism as
// decided by the brute-force/automorphism machinery.
func TestCanonicalCodeIffIsomorphic(t *testing.T) {
	f := func(seed int64, an8, bn8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomConnectedQuery(rng, 3+int(an8%5))
		b := randomConnectedQuery(rng, 3+int(bn8%5))
		ca, _ := CanonicalCode(a)
		cb, _ := CanonicalCode(b)
		return (ca == cb) == isomorphic(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalCodeRelabelInvariant: relabeling by a random permutation never
// changes the code, and the returned permutation canonicalizes: relabeling by
// it yields a query whose canonical permutation is the identity.
func TestCanonicalCodeRelabelInvariant(t *testing.T) {
	f := func(seed int64, qn8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomConnectedQuery(rng, 3+int(qn8%5))
		code, perm := CanonicalCode(q)

		shuffled := rng.Perm(q.NumVertices())
		rq, err := Relabel(q, shuffled, "shuffled")
		if err != nil {
			return false
		}
		rcode, _ := CanonicalCode(rq)
		if rcode != code {
			return false
		}

		canon, err := Relabel(q, perm, "canon")
		if err != nil {
			return false
		}
		ccode, cperm := CanonicalCode(canon)
		if ccode != code {
			return false
		}
		for v, p := range cperm {
			if v != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalCodeCatalogDistinct: the five paper queries are pairwise
// non-isomorphic, so their codes must be pairwise distinct.
func TestCanonicalCodeCatalogDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, q := range PaperQueries() {
		code, _ := CanonicalCode(q)
		if prev, ok := seen[code]; ok {
			t.Errorf("%s and %s share canonical code %q", prev, q.Name(), code)
		}
		seen[code] = q.Name()
	}
}

// TestCanonicalQueryIsClassRepresentative: isomorphic queries map to
// structurally identical representatives, and embeddings of the
// representative translate back through the permutation.
func TestCanonicalQueryIsClassRepresentative(t *testing.T) {
	// Two labelings of the house query.
	a := House()
	shuffle := []int{3, 0, 4, 2, 1}
	bRaw, err := Relabel(a, shuffle, "house-shuffled")
	if err != nil {
		t.Fatal(err)
	}
	codeA, canonA, permA, err := CanonicalQuery(a, "canon")
	if err != nil {
		t.Fatal(err)
	}
	codeB, canonB, permB, err := CanonicalQuery(bRaw, "canon")
	if err != nil {
		t.Fatal(err)
	}
	if codeA != codeB {
		t.Fatalf("codes differ: %q vs %q", codeA, codeB)
	}
	if canonA.String() != canonB.String() {
		t.Fatalf("canonical representatives differ: %s vs %s", canonA, canonB)
	}
	// perm maps original vertices to canonical vertices edge-preservingly.
	for _, e := range a.Edges() {
		if !canonA.HasEdge(permA[e[0]], permA[e[1]]) {
			t.Fatalf("permA drops edge %v", e)
		}
	}
	for _, e := range bRaw.Edges() {
		if !canonB.HasEdge(permB[e[0]], permB[e[1]]) {
			t.Fatalf("permB drops edge %v", e)
		}
	}
}

// bruteMin is the reference canonical code: the minimum encoding over every
// colour-respecting assignment of vertices to positions (positions sorted
// by refined colour), without pruning. Factorial: small queries only.
func bruteMin(q *Query) string {
	n := q.NumVertices()
	colors := refineColors(q)
	target := append([]int(nil), colors...)
	sort.Ints(target)
	byColor := make(map[int][]int)
	for v := 0; v < n; v++ {
		byColor[colors[v]] = append(byColor[colors[v]], v)
	}
	assign := make([]int, n)
	used := make([]bool, n)
	var best string
	var bestRows [][]byte
	// less compares the raw adjacency bits: the hex of packed bits is not
	// lexicographic in the bit stream.
	less := func(a, b [][]byte) bool {
		for p := range a {
			for j := range a[p] {
				if a[p][j] != b[p][j] {
					return a[p][j] < b[p][j]
				}
			}
		}
		return false
	}
	var rec func(pos int)
	rec = func(pos int) {
		if pos == n {
			rows := make([][]byte, n)
			for p := 0; p < n; p++ {
				rows[p] = make([]byte, p)
				for j := 0; j < p; j++ {
					if q.HasEdge(assign[p], assign[j]) {
						rows[p][j] = 1
					}
				}
			}
			if bestRows == nil || less(rows, bestRows) {
				best, bestRows = encodeRows(n, rows), rows
			}
			return
		}
		for _, v := range byColor[target[pos]] {
			if !used[v] {
				used[v], assign[pos] = true, v
				rec(pos + 1)
				used[v] = false
			}
		}
	}
	rec(0)
	return best
}

// circulant is C_n(S) for the jumps in mask (bit s-1 set: jump s).
func circulant(n, mask int) [][2]int {
	var edges [][2]int
	for s := 1; s <= n/2; s++ {
		if mask&(1<<(s-1)) != 0 {
			for v := 0; v < n; v++ {
				if w := (v + s) % n; v < w {
					edges = append(edges, [2]int{v, w})
				}
			}
		}
	}
	return edges
}

// TestCanonicalCodeProperties checks CanonicalCode family by family: equal
// to the unpruned bruteMin where that is affordable, and unchanged under
// random relabelings. Edge lists that are not a connected query are skipped.
func TestCanonicalCodeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type family struct {
		name  string
		count int                         // queries drawn
		draw  func(i int) (int, [][2]int) // vertex count and edge list of the i-th
		brute bool                        // compare with bruteMin
		perms int                         // random relabelings that must keep the code
	}
	// Every graph on 2..6 vertices: each subset of each vertex count's pairs.
	type spec struct {
		n     int
		edges [][2]int
	}
	var all []spec
	for n := 2; n <= 6; n++ {
		var pairs [][2]int
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				pairs = append(pairs, [2]int{a, b})
			}
		}
		for mask := 0; mask < 1<<len(pairs); mask++ {
			var edges [][2]int
			for bit, p := range pairs {
				if mask&(1<<bit) != 0 {
					edges = append(edges, p)
				}
			}
			all = append(all, spec{n, edges})
		}
	}
	connected := func(lo, hi int) func(int) (int, [][2]int) {
		return func(int) (int, [][2]int) {
			n := lo + rng.Intn(hi-lo+1)
			return n, randomConnectedQuery(rng, n).Edges()
		}
	}
	families := []family{
		{"all graphs n=2..6", len(all), func(i int) (int, [][2]int) { return all[i].n, all[i].edges }, true, 0},
		// Vertex-transitive, so colour refinement cannot split them.
		{"circulants n=8,9", 30, func(i int) (int, [][2]int) {
			n := 8 + i/15
			return n, circulant(n, 1+i%15)
		}, true, 20},
		{"random n=8,9", 400, func(int) (int, [][2]int) {
			n, den := 8+rng.Intn(2), 1+rng.Intn(3)
			var edges [][2]int
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					if rng.Intn(4) < den {
						edges = append(edges, [2]int{a, b})
					}
				}
			}
			return n, edges
		}, true, 20},
		// Unions of three random perfect matchings: 3-regular when disjoint.
		{"3-regular n=8", 200, func(int) (int, [][2]int) {
			seen := map[[2]int]bool{}
			var edges [][2]int
			for m := 0; m < 3; m++ {
				p := rng.Perm(8)
				for i := 0; i < 8; i += 2 {
					e := [2]int{min(p[i], p[i+1]), max(p[i], p[i+1])}
					if seen[e] {
						return 8, nil
					}
					seen[e] = true
					edges = append(edges, e)
				}
			}
			return 8, edges
		}, true, 20},
		{"connected n=3..8 (minimality)", 300, connected(3, 8), true, 0},
		{"connected n=3..10 (invariance)", 400, connected(3, 10), false, 10},
		{"path P8", 1, func(int) (int, [][2]int) { return 8, Path("p8", 8).Edges() }, false, 200},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			checked := 0
			for i := 0; i < f.count; i++ {
				n, edges := f.draw(i)
				q, err := NewQuery(fmt.Sprintf("%s#%d", f.name, i), n, edges)
				if err != nil {
					continue
				}
				checked++
				code, _ := CanonicalCode(q)
				if f.brute {
					if want := bruteMin(q); code != want {
						t.Fatalf("edges %v: CanonicalCode %q, bruteMin %q", edges, code, want)
					}
				}
				for k := 0; k < f.perms; k++ {
					p := rng.Perm(n)
					rq, err := Relabel(q, p, "r")
					if err != nil {
						t.Fatal(err)
					}
					if rc, _ := CanonicalCode(rq); rc != code {
						t.Fatalf("edges %v relabelled by %v: code %q, want %q", edges, p, rc, code)
					}
				}
			}
			if checked == 0 {
				t.Fatal("the family produced no connected query")
			}
		})
	}
}
