package graph

// PartialOrder is a symmetry-breaking constraint: in every reported
// embedding m, the data vertex m(Lo) must precede m(Hi) in the total order
// (i.e. have a smaller ID after degree reordering).
type PartialOrder struct {
	// Lo and Hi are query-vertex indices; embeddings with m(Lo) >= m(Hi)
	// are pruned during enumeration.
	Lo, Hi int
}

// SymmetryBreak computes a set of partial orders that breaks all
// automorphisms of q, following the standard orbit-fixing construction of
// Grochow & Kellis [12] also used by PSgL and TwinTwigJoin: repeatedly pick
// the vertex with the largest orbit under the remaining automorphism group,
// constrain it below every other member of its orbit, and restrict the group
// to the stabilizer of that vertex (see stabilizerChain). With the returned
// constraints every unordered occurrence of q is reported exactly once.
func SymmetryBreak(q *Query) []PartialOrder {
	var po []PartialOrder
	for _, orbit := range stabilizerChain(q) {
		for _, w := range orbit[1:] {
			po = append(po, PartialOrder{Lo: orbit[0], Hi: w})
		}
	}
	sortPartialOrders(po)
	return po
}

// AutomorphismCount returns |Aut(q)|: by the orbit-stabilizer theorem, the
// product of the orbit sizes along the stabilizer chain (at most
// MaxQueryVertices! < 2^64).
func AutomorphismCount(q *Query) uint64 {
	count := uint64(1)
	for _, orbit := range stabilizerChain(q) {
		count *= uint64(len(orbit))
	}
	return count
}

// stabilizerChain walks Aut(q)'s chain of point stabilizers without listing
// the group, which has up to n! members: at each step the anchor is the
// smallest vertex with the largest orbit under the automorphisms that fix
// every earlier anchor, and the chain ends when every such orbit is trivial.
// It returns each anchor's orbit in ascending order, the anchor first.
func stabilizerChain(q *Query) [][]int {
	n := q.NumVertices()
	s := &orbitSearch{q: q, forced: make([]int, n), img: make([]int, n), order: make([]int, 0, n)}
	var chain [][]int
	for {
		var best []int
		var inOrbit uint32
		for v := 0; v < n; v++ {
			if inOrbit&(1<<uint(v)) != 0 {
				continue
			}
			orbit := []int{v}
			for w := v + 1; w < n; w++ {
				if inOrbit&(1<<uint(w)) == 0 && q.Degree(w) == q.Degree(v) && s.mapsTo(v, w) {
					inOrbit |= 1 << uint(w)
					orbit = append(orbit, w)
				}
			}
			if len(orbit) > len(best) {
				best = orbit
			}
		}
		if len(best) < 2 {
			return chain
		}
		chain = append(chain, best)
		s.anchors = append(s.anchors, best[0])
	}
}

// orbitSearch asks whether some automorphism of q fixes every anchor and
// maps v to w. It is a first-hit backtracking search: the anchors and v are
// placed first, then each vertex with the most placed neighbours, on an
// unused vertex of its degree whose adjacency to the placed images is its own
// to the placed vertices. The slices are scratch, reused from one question to
// the next.
type orbitSearch struct {
	q       *Query
	anchors []int
	forced  []int // forced[x] is x's image when it is fixed, else -1
	img     []int
	order   []int
}

func (s *orbitSearch) mapsTo(v, w int) bool {
	q, n := s.q, s.q.NumVertices()
	for i := range s.forced {
		s.forced[i] = -1
	}
	s.order = append(append(s.order[:0], s.anchors...), v)
	var placed uint32
	for _, a := range s.anchors {
		s.forced[a], placed = a, placed|1<<uint(a)
	}
	s.forced[v], placed = w, placed|1<<uint(v)
	for len(s.order) < n {
		next, most := -1, -1
		for x := 0; x < n; x++ {
			if c := popcount(q.AdjMask(x) & placed); placed&(1<<uint(x)) == 0 && c > most {
				next, most = x, c
			}
		}
		s.order, placed = append(s.order, next), placed|1<<uint(next)
	}
	return s.place(0, 0)
}

// place maps s.order[i:] given the images of s.order[:i], which use the
// vertices in used.
func (s *orbitSearch) place(i int, used uint32) bool {
	if i == len(s.order) {
		return true
	}
	q, x := s.q, s.order[i]
candidates:
	for y := 0; y < q.NumVertices(); y++ {
		if used&(1<<uint(y)) != 0 || q.Degree(y) != q.Degree(x) || s.forced[x] >= 0 && s.forced[x] != y {
			continue
		}
		for _, z := range s.order[:i] {
			if q.HasEdge(x, z) != q.HasEdge(y, s.img[z]) {
				continue candidates
			}
		}
		s.img[x] = y
		if s.place(i+1, used|1<<uint(y)) {
			return true
		}
	}
	return false
}

func sortPartialOrders(po []PartialOrder) {
	for i := 1; i < len(po); i++ {
		for j := i; j > 0 && lessPO(po[j], po[j-1]); j-- {
			po[j], po[j-1] = po[j-1], po[j]
		}
	}
}

func lessPO(a, b PartialOrder) bool {
	if a.Lo != b.Lo {
		return a.Lo < b.Lo
	}
	return a.Hi < b.Hi
}

// POAllows reports whether assigning data vertices da to query vertex qa and
// db to qb is consistent with the partial-order set. Pairs not covered by
// any constraint are always allowed.
func POAllows(po []PartialOrder, qa int, da VertexID, qb int, db VertexID) bool {
	for _, c := range po {
		if c.Lo == qa && c.Hi == qb && !(da < db) {
			return false
		}
		if c.Lo == qb && c.Hi == qa && !(db < da) {
			return false
		}
	}
	return true
}
