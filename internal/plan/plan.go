// Package plan implements Section 4 of the paper: the preparation step of
// the dual approach. Given the red query graph and the symmetry-breaking
// partial orders it enumerates all full-order query sequences, groups them
// into v-group sequences by position topology, searches for the global
// matching order that minimizes Cartesian products, and builds one v-group
// forest per v-group sequence.
package plan

import (
	"fmt"
	"time"

	"dualsim/internal/graph"
	"dualsim/internal/rbi"
)

// VGroup is one v-group sequence: an equivalence class of full-order query
// sequences that share a position topology (Definition 3) and therefore
// match exactly the same ordered data vertex tuples.
type VGroup struct {
	// Topology has bit topoBit(p, p') set when positions p and p' must be
	// adjacent in the data graph: one bit per unordered pair, 45 for the
	// largest K Prepare accepts.
	Topology uint64
	// Sequences holds the class members: Sequences[s][pos] is the query
	// vertex matched at sorted rank pos.
	Sequences [][]int
	// Forest is the traversal structure for this group under the plan's
	// global matching order.
	Forest *Forest
}

// HasTopologyEdge reports whether the group's topology requires positions p
// and p' to be adjacent.
func (vg *VGroup) HasTopologyEdge(p, pp int) bool {
	return vg.Topology&topoBit(p, pp) != 0
}

// topoBit is the Topology bit of the distinct positions p and p': the
// triangular index of the pair, p'(p'−1)/2 + p for p < p'.
func topoBit(p, pp int) uint64 {
	if p > pp {
		p, pp = pp, p
	}
	return 1 << uint(pp*(pp-1)/2+p)
}

// Forest is a v-group forest: level l (0-based) holds the position
// MatchingOrder[l]; Parent[l] is the level of its parent node, or -1 for a
// root. A root at level > 0 is a Cartesian product during traversal.
type Forest struct {
	Parent   []int
	Children [][]int
	Depth    []int
	Roots    int
}

// Plan is the output of the preparation step.
type Plan struct {
	Query *graph.Query
	// PO is the full symmetry-breaking partial order set.
	PO []graph.PartialOrder
	// RBI is the colored query graph.
	RBI *rbi.Graph
	// NonRedBounds[i] names the partial orders that bound RBI.NonRed[i] when
	// it is matched.
	NonRedBounds []OrderBounds
	// Tail is the length of the longest suffix of RBI.NonRed whose vertices
	// are interchangeable: the same red neighbors, and bounds that are the
	// first member's plus every earlier member as a Lower (see tailLen). A
	// count that reaches the tail adds C(n, Tail) for the n candidates its
	// first vertex has left instead of enumerating them. 0 when every vertex
	// is red.
	Tail int
	// K is the number of red vertices (= forest levels).
	K int
	// Groups are the v-group sequences. A position is a rank in the sorted
	// data tuple, not a red vertex: red vertices move between positions from
	// one sequence to the next.
	Groups []*VGroup
	// MatchingOrder[l] is the position (0-based rank) matched at level l.
	MatchingOrder []int
	// LevelOfPos inverts MatchingOrder.
	LevelOfPos []int
	// Cartesians is the number of non-level-0 roots across all forests
	// under the chosen matching order.
	Cartesians int
	// PrepTime is the elapsed preparation time (the paper's Table 6).
	PrepTime time.Duration
}

// OrderBounds lists, for one non-red query vertex u, the query vertices
// already mapped when u is matched — every red vertex and the non-red ones
// before u — that a partial order ties to u: m(q) < m(u) for q in Lower,
// m(u) < m(q) for q in Upper. Both empty means nothing bounds u.
type OrderBounds struct {
	Lower, Upper []int
}

// nonRedBounds computes Plan.NonRedBounds: matching follows rg.NonRed, so
// which ends of po are mapped at each step is known here.
func nonRedBounds(rg *rbi.Graph, po []graph.PartialOrder) []OrderBounds {
	out := make([]OrderBounds, len(rg.NonRed))
	mapped := mask(rg.Red)
	for i, u := range rg.NonRed {
		for _, c := range po {
			if c.Hi == u && mapped&(1<<uint(c.Lo)) != 0 {
				out[i].Lower = append(out[i].Lower, c.Lo)
			}
			if c.Lo == u && mapped&(1<<uint(c.Hi)) != 0 {
				out[i].Upper = append(out[i].Upper, c.Hi)
			}
		}
		mapped |= 1 << uint(u)
	}
	return out
}

// tailLen computes Plan.Tail. The tail grows backwards from the last
// non-red vertex while the vertex before its first member has that member's
// neighbors (all red: non-red vertices are independent) and Upper, and that member's Lower is the vertex's plus the
// vertex itself. Every member then picks from one candidate list, each
// strictly above the one before, so the tail's tuples are the Tail-subsets of
// that list.
func tailLen(rg *rbi.Graph, bounds []OrderBounds) int {
	i := len(rg.NonRed) - 1 // the tail's first member
	for ; i > 0; i-- {
		w, u := rg.NonRed[i-1], rg.NonRed[i]
		if rg.Query.AdjMask(w) != rg.Query.AdjMask(u) ||
			mask(bounds[i].Upper) != mask(bounds[i-1].Upper) ||
			mask(bounds[i].Lower) != mask(bounds[i-1].Lower)|1<<uint(w) {
			break
		}
	}
	return len(rg.NonRed) - max(i, 0)
}

// mask is the bit set of the query vertices vs.
func mask(vs []int) uint32 {
	var m uint32
	for _, v := range vs {
		m |= 1 << uint(v)
	}
	return m
}

// Options configures preparation.
type Options struct {
	// CoverMode selects MCVC (default) or MVC red sets.
	CoverMode rbi.CoverMode
	// WorstOrder, when set, picks the matching order that maximizes
	// Cartesian products instead of minimizing them (ablation only).
	WorstOrder bool
}

// Prepare runs the full preparation step (Algorithm 1 lines 1-5).
func Prepare(q *graph.Query, opts Options) (*Plan, error) {
	start := time.Now()
	po := graph.SymmetryBreak(q)
	rg, err := rbi.Transform(q, po, opts.CoverMode)
	if err != nil {
		return nil, err
	}
	p := &Plan{Query: q, PO: po, RBI: rg, NonRedBounds: nonRedBounds(rg, po), K: len(rg.Red)}
	p.Tail = tailLen(rg, p.NonRedBounds)
	if p.K > 10 {
		return nil, fmt.Errorf("plan: %d red vertices; the dual approach enumerates K! sequences and is intended for small queries", p.K)
	}
	seqs := fullOrderSequences(rg)
	if len(seqs) == 0 {
		return nil, fmt.Errorf("plan: no full-order query sequence satisfies the partial orders (internal error)")
	}
	p.Groups = groupSequences(q, seqs, p.K)
	p.MatchingOrder, p.Cartesians = chooseMatchingOrder(p.Groups, p.K, opts.WorstOrder)
	p.LevelOfPos = make([]int, p.K)
	for l, pos := range p.MatchingOrder {
		p.LevelOfPos[pos] = l
	}
	for _, vg := range p.Groups {
		vg.Forest = buildForest(vg, p.MatchingOrder, p.K)
	}
	p.PrepTime = time.Since(start)
	return p, nil
}

// fullOrderSequences enumerates the permutations of the red vertices that
// are linear extensions of the internal partial orders (Definition 2).
func fullOrderSequences(rg *rbi.Graph) [][]int {
	red := rg.Red
	k := len(red)
	// posConstraint[i][j] true means red[i] must precede red[j].
	prec := make([][]bool, k)
	for i := range prec {
		prec[i] = make([]bool, k)
	}
	idx := map[int]int{}
	for i, u := range red {
		idx[u] = i
	}
	for _, c := range rg.InternalPO {
		prec[idx[c.Lo]][idx[c.Hi]] = true
	}
	var out [][]int
	seq := make([]int, k) // seq[pos] = red-local index
	placed := make([]bool, k)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == k {
			qseq := make([]int, k)
			for p, i := range seq {
				qseq[p] = red[i]
			}
			out = append(out, qseq)
			return
		}
		for i := 0; i < k; i++ {
			if placed[i] {
				continue
			}
			// Every red vertex that must precede red[i] must be placed.
			ok := true
			for j := 0; j < k; j++ {
				if prec[j][i] && !placed[j] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			seq[pos] = i
			placed[i] = true
			rec(pos + 1)
			placed[i] = false
		}
	}
	rec(0)
	return out
}

// groupSequences partitions full-order sequences into v-groups by topology.
func groupSequences(q *graph.Query, seqs [][]int, k int) []*VGroup {
	byTopo := map[uint64]*VGroup{}
	var order []uint64
	for _, s := range seqs {
		var topo uint64
		for p := 0; p < k; p++ {
			for pp := p + 1; pp < k; pp++ {
				if q.HasEdge(s[p], s[pp]) {
					topo |= topoBit(p, pp)
				}
			}
		}
		vg, ok := byTopo[topo]
		if !ok {
			vg = &VGroup{Topology: topo}
			byTopo[topo] = vg
			order = append(order, topo)
		}
		vg.Sequences = append(vg.Sequences, s)
	}
	out := make([]*VGroup, 0, len(order))
	for _, topo := range order {
		out = append(out, byTopo[topo])
	}
	return out
}

// buildForest constructs the v-group forest for vg under matching order mo:
// the node at level l holds position mo[l]; its parent is the deepest
// earlier node adjacent to it in the group's topology (paper: "the one
// which is farthest from its root node"), or none (a new root).
func buildForest(vg *VGroup, mo []int, k int) *Forest {
	f := &Forest{
		Parent:   make([]int, k),
		Children: make([][]int, k),
		Depth:    make([]int, k),
	}
	for l := 0; l < k; l++ {
		pos := mo[l]
		parent := -1
		for pl := 0; pl < l; pl++ {
			if vg.HasTopologyEdge(mo[pl], pos) {
				if parent < 0 || f.Depth[pl] > f.Depth[parent] ||
					(f.Depth[pl] == f.Depth[parent] && pl > parent) {
					parent = pl
				}
			}
		}
		f.Parent[l] = parent
		if parent < 0 {
			f.Roots++
			f.Depth[l] = 0
		} else {
			f.Depth[l] = f.Depth[parent] + 1
			f.Children[parent] = append(f.Children[parent], l)
		}
	}
	return f
}

// chooseMatchingOrder returns the matching order that minimizes total
// Cartesian products (roots beyond the level-0 root, summed over groups), or
// with worst maximizes them, and that total. Whether a position is a root
// depends only on the set S of positions matched before it — a root has no
// topology neighbour in S — so a DP over the 2^K prefix sets stands in for a
// search over the K! orders: roots[p][S] counts the groups in which p is a
// root after S, and rest[S] is the best total for the positions outside S.
// Of several optima it returns the lexicographically first.
func chooseMatchingOrder(groups []*VGroup, k int, worst bool) ([]int, int) {
	full := 1<<uint(k) - 1
	roots := make([][]int, k)
	for p := range roots {
		// Count each group at the positions that are not p's neighbours, then
		// sum over supersets: p is a root after S iff S avoids its neighbours.
		r := make([]int, full+1)
		for _, vg := range groups {
			nb := 0
			for pp := 0; pp < k; pp++ {
				if pp != p && vg.HasTopologyEdge(p, pp) {
					nb |= 1 << uint(pp)
				}
			}
			r[full&^nb]++
		}
		for b := 0; b < k; b++ {
			for set := full; set >= 0; set-- {
				if set&(1<<uint(b)) == 0 {
					r[set] += r[set|1<<uint(b)]
				}
			}
		}
		roots[p] = r
	}
	sign := 1
	if worst {
		sign = -1
	}
	rest := make([]int, full+1)
	for set := full - 1; set >= 0; set-- {
		rest[set] = -1
		for p := 0; p < k; p++ {
			if c := roots[p][set] + rest[set|1<<uint(p)]; set&(1<<uint(p)) == 0 && (rest[set] < 0 || sign*c < sign*rest[set]) {
				rest[set] = c
			}
		}
	}
	order := make([]int, 0, k)
	for set := 0; set != full; {
		for p := 0; p < k; p++ {
			if set&(1<<uint(p)) == 0 && roots[p][set]+rest[set|1<<uint(p)] == rest[set] {
				order, set = append(order, p), set|1<<uint(p)
				break
			}
		}
	}
	return order, rest[0] - len(groups)
}

// NumFullOrderSequences returns the total sequence count across groups.
func (p *Plan) NumFullOrderSequences() int {
	n := 0
	for _, vg := range p.Groups {
		n += len(vg.Sequences)
	}
	return n
}

// String summarizes the plan for logging.
func (p *Plan) String() string {
	return fmt.Sprintf("plan{%s: red=%v, %d sequences in %d v-groups, mo=%v, cartesians=%d}",
		p.Query.Name(), p.RBI.Red, p.NumFullOrderSequences(), len(p.Groups), p.MatchingOrder, p.Cartesians)
}
