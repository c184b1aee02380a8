package plan

import (
	"testing"

	"dualsim/internal/graph"
	"dualsim/internal/rbi"
)

func prep(t *testing.T, q *graph.Query) *Plan {
	t.Helper()
	p, err := Prepare(q, Options{})
	if err != nil {
		t.Fatalf("Prepare(%s): %v", q.Name(), err)
	}
	return p
}

func TestPrepareCatalog(t *testing.T) {
	cases := []struct {
		q          *graph.Query
		wantK      int
		wantSeqs   int
		wantGroups int
	}{
		// Triangle: red pair with one internal PO -> single sequence.
		{graph.Triangle(), 2, 1, 1},
		// Square: Rule 1 picks cover {0,1,3} (3 internal POs: 0<1, 0<3,
		// 1<3), which is fully ordered -> a single sequence.
		{graph.Square(), 3, 1, 1},
		// Chordal square: red = chord {0,2}, internal PO 0<2 -> 1 sequence.
		{graph.ChordalSquare(), 2, 1, 1},
		// K4: red triangle fully ordered internally -> 1 sequence.
		{graph.Clique4(), 3, 1, 1},
		// House: red path with PO 0<1 -> 3 sequences in 2 groups, exactly
		// the Figure 1(b) structure.
		{graph.House(), 3, 3, 2},
	}
	for _, c := range cases {
		p := prep(t, c.q)
		if p.K != c.wantK {
			t.Errorf("%s: K = %d, want %d", c.q.Name(), p.K, c.wantK)
		}
		if got := p.NumFullOrderSequences(); got != c.wantSeqs {
			t.Errorf("%s: sequences = %d, want %d", c.q.Name(), got, c.wantSeqs)
		}
		if got := len(p.Groups); got != c.wantGroups {
			t.Errorf("%s: groups = %d, want %d", c.q.Name(), got, c.wantGroups)
		}
	}
}

func TestHouseMatchesFigure1(t *testing.T) {
	p := prep(t, graph.House())
	// Figure 1(b): one v-group with a single sequence, one with two.
	sizes := []int{len(p.Groups[0].Sequences), len(p.Groups[1].Sequences)}
	if !(sizes[0] == 1 && sizes[1] == 2) && !(sizes[0] == 2 && sizes[1] == 1) {
		t.Fatalf("group sizes = %v, want {1,2}", sizes)
	}
	// A good global matching order avoids all Cartesian products here
	// (Figure 4(b)).
	if p.Cartesians != 0 {
		t.Errorf("cartesians = %d, want 0 (cf. Figure 4(b))", p.Cartesians)
	}
}

func TestWorstOrderAblation(t *testing.T) {
	best := prep(t, graph.House())
	worst, err := Prepare(graph.House(), Options{WorstOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if worst.Cartesians <= best.Cartesians {
		t.Errorf("worst order cartesians %d <= best %d (cf. Figure 4(a) vs 4(b))",
			worst.Cartesians, best.Cartesians)
	}
}

func TestSequencesAreLinearExtensions(t *testing.T) {
	for _, q := range graph.PaperQueries() {
		p := prep(t, q)
		for _, vg := range p.Groups {
			for _, seq := range vg.Sequences {
				posOf := map[int]int{}
				for pos, u := range seq {
					posOf[u] = pos
				}
				for _, c := range p.RBI.InternalPO {
					if posOf[c.Lo] >= posOf[c.Hi] {
						t.Errorf("%s: sequence %v violates internal PO %v", q.Name(), seq, c)
					}
				}
				if len(seq) != p.K {
					t.Errorf("%s: sequence %v has wrong length", q.Name(), seq)
				}
			}
		}
	}
}

func TestTopologyMatchesSequences(t *testing.T) {
	for _, q := range graph.PaperQueries() {
		p := prep(t, q)
		for gi, vg := range p.Groups {
			for _, seq := range vg.Sequences {
				for a := 0; a < p.K; a++ {
					for b := a + 1; b < p.K; b++ {
						if q.HasEdge(seq[a], seq[b]) != vg.HasTopologyEdge(a, b) {
							t.Errorf("%s group %d: seq %v disagrees with topology at (%d,%d)",
								q.Name(), gi, seq, a, b)
						}
					}
				}
			}
		}
	}
}

func TestForestInvariants(t *testing.T) {
	queries := append(graph.PaperQueries(),
		graph.Path("p4", 4), graph.Star("s3", 3), graph.Cycle("c5", 5), graph.Clique("k5", 5))
	for _, q := range queries {
		p := prep(t, q)
		// Matching order is a permutation of positions.
		seen := map[int]bool{}
		for _, pos := range p.MatchingOrder {
			if pos < 0 || pos >= p.K || seen[pos] {
				t.Fatalf("%s: bad matching order %v", q.Name(), p.MatchingOrder)
			}
			seen[pos] = true
		}
		for l, pos := range p.MatchingOrder {
			if p.LevelOfPos[pos] != l {
				t.Fatalf("%s: LevelOfPos not inverse of MatchingOrder", q.Name())
			}
		}
		for gi, vg := range p.Groups {
			f := vg.Forest
			roots := 0
			for l := 0; l < p.K; l++ {
				par := f.Parent[l]
				if par < 0 {
					roots++
					if f.Depth[l] != 0 {
						t.Errorf("%s group %d: root at level %d has depth %d", q.Name(), gi, l, f.Depth[l])
					}
					continue
				}
				if par >= l {
					t.Errorf("%s group %d: parent %d >= level %d", q.Name(), gi, par, l)
				}
				// Parent edge must exist in the topology.
				if !vg.HasTopologyEdge(p.MatchingOrder[par], p.MatchingOrder[l]) {
					t.Errorf("%s group %d: forest edge (%d,%d) not in topology", q.Name(), gi, par, l)
				}
				if f.Depth[l] != f.Depth[par]+1 {
					t.Errorf("%s group %d: depth inconsistent at level %d", q.Name(), gi, l)
				}
			}
			if roots != f.Roots || roots < 1 {
				t.Errorf("%s group %d: roots %d (field %d)", q.Name(), gi, roots, f.Roots)
			}
			// Level 0 is always a root.
			if f.Parent[0] != -1 {
				t.Errorf("%s group %d: level 0 not a root", q.Name(), gi)
			}
			// Children lists consistent with parents.
			for par, kids := range f.Children {
				for _, kid := range kids {
					if f.Parent[kid] != par {
						t.Errorf("%s group %d: child %d of %d disagrees", q.Name(), gi, kid, par)
					}
				}
			}
		}
	}
}

func TestDeepestParentChosen(t *testing.T) {
	// Chain topology 0-1-2 with matching order (0,1,2): node 2's only
	// neighbor is 1 (depth 1), giving a path, not a star.
	p := prep(t, graph.Clique4()) // red triangle: all positions adjacent
	f := p.Groups[0].Forest
	// In a triangle topology every later node can attach to the deepest
	// earlier node, so the forest must be a path: depths 0,1,2.
	for l := 0; l < p.K; l++ {
		if f.Depth[l] != l {
			t.Errorf("K4 red-triangle forest depths = %v, want 0,1,2", f.Depth)
		}
	}
}

func TestPrepareMVCMode(t *testing.T) {
	p, err := Prepare(graph.Square(), Options{CoverMode: rbi.MVC})
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 2 {
		t.Errorf("square MVC K = %d, want 2", p.K)
	}
	// MVC {0,2} of C4 has no red edge: every group's topology is empty and
	// traversal needs a Cartesian product.
	if p.Cartesians == 0 {
		t.Errorf("square MVC should require a Cartesian product")
	}
}

func TestPrepTimeRecorded(t *testing.T) {
	p := prep(t, graph.House())
	if p.PrepTime <= 0 {
		t.Errorf("PrepTime = %v", p.PrepTime)
	}
	if p.String() == "" {
		t.Errorf("empty String()")
	}
}

func TestSingleRedVertex(t *testing.T) {
	p := prep(t, graph.Star("s3", 3))
	if p.K != 1 || len(p.Groups) != 1 || len(p.Groups[0].Sequences) != 1 {
		t.Fatalf("star plan: K=%d groups=%d", p.K, len(p.Groups))
	}
	f := p.Groups[0].Forest
	if f.Roots != 1 || f.Parent[0] != -1 {
		t.Fatalf("star forest: %+v", f)
	}
}

// TestTailLength pins Plan.Tail, the run of trailing non-red vertices a count
// stops at: they share their red neighbors and their bounds chain them in
// NonRed order, so their tuples are subsets of one candidate list.
func TestTailLength(t *testing.T) {
	book := graph.MustNewQuery("book3", 5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {0, 4}, {1, 4}})
	k23 := graph.MustNewQuery("k2,3", 5, [][2]int{{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}})
	for _, c := range []struct {
		q    *graph.Query
		mode rbi.CoverMode
		want int
	}{
		{graph.Triangle(), rbi.MCVC, 1},
		{graph.Square(), rbi.MCVC, 1},
		{graph.Square(), rbi.MVC, 2},
		{graph.ChordalSquare(), rbi.MCVC, 2},
		{graph.Clique4(), rbi.MCVC, 1},
		{graph.House(), rbi.MCVC, 1}, // its two non-red vertices have different red neighbors
		{graph.Star("s3", 3), rbi.MCVC, 3},
		{book, rbi.MCVC, 3},
		{k23, rbi.MCVC, 2},
		{k23, rbi.MVC, 3},
		{graph.Triangle(), rbi.AllRed, 0},
	} {
		p, err := Prepare(c.q, Options{CoverMode: c.mode})
		if err != nil {
			t.Fatal(err)
		}
		if p.Tail != c.want {
			t.Errorf("%s/%v: tail %d, want %d (non-red %v, bounds %v)", c.q.Name(), c.mode, p.Tail, c.want, p.RBI.NonRed, p.NonRedBounds)
		}
	}

	// Vertices 2 and 3 share the red neighbors {0, 1}, and 3 is bounded below
	// by 2, but only 2 is bounded above by 0: the tail is 3 alone.
	p := &Plan{
		RBI: &rbi.Graph{
			Query:        graph.MustNewQuery("book2", 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}}),
			NonRed:       []int{2, 3},
			RedNeighbors: [][]int{nil, nil, {0, 1}, {0, 1}},
		},
		NonRedBounds: []OrderBounds{{Upper: []int{0}}, {Lower: []int{2}}},
	}
	if got := tailLen(p.RBI, p.NonRedBounds); got != 1 {
		t.Errorf("tail %d where the Upper bounds differ, want 1", got)
	}
}
