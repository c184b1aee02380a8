package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// Automorphisms returns every automorphism of q as a permutation slice
// (perm[i] = image of vertex i), the identity included: the brute-force
// reference stabilizerChain is checked against. It lists up to n! members.
func Automorphisms(q *Query) [][]int {
	n := q.NumVertices()
	perm := make([]int, n)
	used := make([]bool, n)
	var out [][]int
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		deg[i] = q.Degree(i)
	}
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			cp := make([]int, n)
			copy(cp, perm)
			out = append(out, cp)
			return
		}
		for img := 0; img < n; img++ {
			if used[img] || deg[img] != deg[i] {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				if q.HasEdge(i, j) != q.HasEdge(img, perm[j]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			perm[i] = img
			used[img] = true
			rec(i + 1)
			used[img] = false
		}
	}
	rec(0)
	return out
}

func TestAutomorphismCounts(t *testing.T) {
	cases := []struct {
		q    *Query
		want int
	}{
		{Triangle(), 6},        // S3
		{Square(), 8},          // dihedral D4
		{ChordalSquare(), 4},   // swap chord endpoints x swap the others
		{Clique4(), 24},        // S4
		{House(), 2},           // mirror symmetry only
		{Path("p3", 3), 2},     // reverse
		{Star("s3", 3), 6},     // S3 on leaves
		{Cycle("c5", 5), 10},   // dihedral D5
		{Clique("k5", 5), 120}, // S5
	}
	for _, c := range cases {
		got := len(Automorphisms(c.q))
		if got != c.want {
			t.Errorf("%s: |Aut| = %d, want %d", c.q.Name(), got, c.want)
		}
	}
}

func TestAutomorphismsAreValid(t *testing.T) {
	for _, q := range PaperQueries() {
		for _, a := range Automorphisms(q) {
			seen := map[int]bool{}
			for _, img := range a {
				if seen[img] {
					t.Fatalf("%s: %v not a permutation", q.Name(), a)
				}
				seen[img] = true
			}
			for i := 0; i < q.NumVertices(); i++ {
				for j := i + 1; j < q.NumVertices(); j++ {
					if q.HasEdge(i, j) != q.HasEdge(a[i], a[j]) {
						t.Fatalf("%s: %v does not preserve adjacency", q.Name(), a)
					}
				}
			}
		}
	}
}

func TestSymmetryBreakIdentityOnly(t *testing.T) {
	// After applying PO, only the identity automorphism maps constraint-
	// respecting assignments to constraint-respecting assignments... the
	// cheap verifiable property: embeddings(noPO) = |Aut| * embeddings(PO)
	// on arbitrary graphs. Tested exhaustively over random graphs.
	rng := rand.New(rand.NewSource(42))
	queries := append(PaperQueries(), Path("p4", 4), Star("s3", 3), Cycle("c5", 5))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, 20, 45)
		for _, q := range queries {
			po := SymmetryBreak(q)
			raw := BruteForceCount(g, q, nil)
			dedup := BruteForceCount(g, q, po)
			aut := uint64(len(Automorphisms(q)))
			if raw != dedup*aut {
				t.Fatalf("trial %d %s: raw=%d dedup=%d |Aut|=%d (want raw = dedup*|Aut|)",
					trial, q.Name(), raw, dedup, aut)
			}
		}
	}
}

func TestSymmetryBreakTriangle(t *testing.T) {
	po := SymmetryBreak(Triangle())
	// Triangle needs a full order over its three vertices: at least 2
	// constraints whose transitive closure orders all pairs.
	if len(po) < 2 {
		t.Fatalf("triangle PO too small: %v", po)
	}
	g := MustNewGraph(3, [][2]VertexID{{0, 1}, {1, 2}, {0, 2}})
	if got := BruteForceCount(g, Triangle(), po); got != 1 {
		t.Fatalf("triangle in K3 counted %d times, want 1", got)
	}
}

func TestPOAllows(t *testing.T) {
	po := []PartialOrder{{Lo: 0, Hi: 1}}
	if !POAllows(po, 0, 3, 1, 5) {
		t.Errorf("3<5 should satisfy 0<1")
	}
	if POAllows(po, 0, 5, 1, 3) {
		t.Errorf("5<3 violates 0<1")
	}
	if !POAllows(po, 2, 9, 3, 1) {
		t.Errorf("unconstrained pair must be allowed")
	}
	// Reverse argument order.
	if POAllows(po, 1, 3, 0, 5) {
		t.Errorf("(qb,qa) ordering should still enforce the constraint")
	}
}

// referenceSymmetryBreak is the orbit-fixing construction over the listed
// group: the reference stabilizerChain is held to.
func referenceSymmetryBreak(q *Query) ([]PartialOrder, uint64) {
	auts := Automorphisms(q)
	count := uint64(len(auts))
	n := q.NumVertices()
	var po []PartialOrder
	for len(auts) > 1 {
		orbit := make([]map[int]bool, n)
		for i := range orbit {
			orbit[i] = map[int]bool{}
			for _, a := range auts {
				orbit[i][a[i]] = true
			}
		}
		best := 0
		for i := 1; i < n; i++ {
			if len(orbit[i]) > len(orbit[best]) {
				best = i
			}
		}
		for w := range orbit[best] {
			if w != best {
				po = append(po, PartialOrder{Lo: best, Hi: w})
			}
		}
		var next [][]int
		for _, a := range auts {
			if a[best] == best {
				next = append(next, a)
			}
		}
		auts = next
	}
	sortPartialOrders(po)
	return po, count
}

// TestStabilizerChainMatchesGroup: the partial orders and |Aut| the
// stabilizer chain yields are those of the listed group, on every connected
// query of up to 6 vertices and on random ones of 7 and 8.
func TestStabilizerChainMatchesGroup(t *testing.T) {
	var queries []*Query
	for n := 1; n <= 6; n++ {
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
			if q, err := NewQuery("all", n, edges); err == nil {
				queries = append(queries, q)
			}
		}
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 300; i++ {
		queries = append(queries, randomConnectedQuery(rng, 7+i%2))
	}
	for _, q := range queries {
		wantPO, wantAut := referenceSymmetryBreak(q)
		if po := SymmetryBreak(q); fmt.Sprint(po) != fmt.Sprint(wantPO) {
			t.Fatalf("%v: partial orders %v, the listed group gives %v", q.Edges(), po, wantPO)
		}
		if aut := AutomorphismCount(q); aut != wantAut {
			t.Fatalf("%v: |Aut| %d, the listed group has %d", q.Edges(), aut, wantAut)
		}
	}
}
