package rbi

import (
	"testing"

	"dualsim/internal/graph"
)

func transform(t *testing.T, q *graph.Query, mode CoverMode) *Graph {
	t.Helper()
	g, err := Transform(q, graph.SymmetryBreak(q), mode)
	if err != nil {
		t.Fatalf("Transform(%s): %v", q.Name(), err)
	}
	return g
}

func TestRedCounts(t *testing.T) {
	cases := []struct {
		q        *graph.Query
		mode     CoverMode
		wantReds int
	}{
		{graph.Triangle(), MCVC, 2},
		{graph.Square(), MCVC, 3},        // {0,2} covers C4 but is disconnected
		{graph.Square(), MVC, 2},         // MVC allows the disconnected pair
		{graph.ChordalSquare(), MCVC, 2}, // chord endpoints cover and connect
		{graph.Clique4(), MCVC, 3},
		{graph.House(), MCVC, 3},
		{graph.Star("s4", 4), MCVC, 1}, // hub alone covers the star
		{graph.Path("p4", 4), MCVC, 2}, // middle vertices
	}
	for _, c := range cases {
		g := transform(t, c.q, c.mode)
		if len(g.Red) != c.wantReds {
			t.Errorf("%s %v: %d red vertices (%v), want %d", c.q.Name(), c.mode, len(g.Red), g.Red, c.wantReds)
		}
	}
}

func TestRedSetIsCover(t *testing.T) {
	for _, q := range graph.PaperQueries() {
		for _, mode := range []CoverMode{MCVC, MVC} {
			g := transform(t, q, mode)
			var mask uint32
			for _, v := range g.Red {
				mask |= 1 << uint(v)
			}
			if !q.IsVertexCover(mask) {
				t.Errorf("%s %v: red set %v is not a cover", q.Name(), mode, g.Red)
			}
			if mode == MCVC && len(g.Red) > 1 && !q.InducedConnected(mask) {
				t.Errorf("%s: MCVC red set %v not connected", q.Name(), g.Red)
			}
		}
	}
}

func TestColoringSemantics(t *testing.T) {
	for _, q := range graph.PaperQueries() {
		g := transform(t, q, MCVC)
		for _, u := range g.NonRed {
			reds := g.RedNeighbors[u]
			if len(reds) != q.Degree(u) {
				t.Errorf("%s: non-red %d has non-red neighbors", q.Name(), u)
			}
			switch g.Colors[u] {
			case Black:
				if len(reds) != 1 {
					t.Errorf("%s: black %d has %d red neighbors", q.Name(), u, len(reds))
				}
			case Ivory:
				if len(reds) < 2 {
					t.Errorf("%s: ivory %d has %d red neighbors", q.Name(), u, len(reds))
				}
			default:
				t.Errorf("%s: non-red %d colored %v", q.Name(), u, g.Colors[u])
			}
		}
	}
}

func TestHouseColoring(t *testing.T) {
	// Figure 1/3(b): the house's two non-red vertices are both ivory.
	g := transform(t, graph.House(), MCVC)
	ivory := 0
	for _, u := range g.NonRed {
		if g.Colors[u] == Ivory {
			ivory++
		}
	}
	if len(g.NonRed) != 2 || ivory != 2 {
		t.Errorf("house: nonred=%v colors=%v, want 2 ivory", g.NonRed, g.Colors)
	}
}

func TestFigure3aColoring(t *testing.T) {
	// Figure 3(a): q with u1,u2 red; u3 black (adjacent to u2 only);
	// u4,u5 ivory (adjacent to u1 and u2). Using 0-based ids: red {0,1},
	// black {2}, ivory {3,4}. Edges: 0-1, 0-3, 1-3, 0-4, 1-4, 1-2.
	q := graph.MustNewQuery("fig3a", 5, [][2]int{{0, 1}, {0, 3}, {1, 3}, {0, 4}, {1, 4}, {1, 2}})
	g := transform(t, q, MCVC)
	if len(g.Red) != 2 || g.Red[0] != 0 || g.Red[1] != 1 {
		t.Fatalf("fig3a red = %v, want [0 1]", g.Red)
	}
	if g.Colors[2] != Black {
		t.Errorf("u3 color = %v, want black", g.Colors[2])
	}
	if g.Colors[3] != Ivory || g.Colors[4] != Ivory {
		t.Errorf("u4/u5 colors = %v/%v, want ivory", g.Colors[3], g.Colors[4])
	}
}

func TestRule2PrefersDenserRQG(t *testing.T) {
	// K4 has four MCVCs (any 3 vertices), all with 3 induced edges — the
	// deterministic tiebreak picks {0,1,2}.
	g := transform(t, graph.Clique4(), MCVC)
	want := []int{0, 1, 2}
	for i, v := range g.Red {
		if v != want[i] {
			t.Fatalf("K4 red = %v, want %v", g.Red, want)
		}
	}
}

func TestInternalExternalPOSplit(t *testing.T) {
	q := graph.Triangle()
	po := graph.SymmetryBreak(q)
	g, err := Transform(q, po, MCVC)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.InternalPO)+len(g.ExternalPO) != len(po) {
		t.Fatalf("PO split loses constraints: %d + %d != %d",
			len(g.InternalPO), len(g.ExternalPO), len(po))
	}
	for _, c := range g.InternalPO {
		if g.Colors[c.Lo] != Red || g.Colors[c.Hi] != Red {
			t.Errorf("internal PO %v has non-red endpoint", c)
		}
	}
	for _, c := range g.ExternalPO {
		if g.Colors[c.Lo] == Red && g.Colors[c.Hi] == Red {
			t.Errorf("external PO %v has both endpoints red", c)
		}
	}
}

func TestSingleEdgeQuery(t *testing.T) {
	q := graph.MustNewQuery("edge", 2, [][2]int{{0, 1}})
	g := transform(t, q, MCVC)
	if len(g.Red) != 1 {
		t.Fatalf("edge query red = %v, want one vertex", g.Red)
	}
	if g.Colors[g.NonRed[0]] != Black {
		t.Fatalf("edge query non-red should be black")
	}
}

func TestSingleVertexQuery(t *testing.T) {
	q := graph.MustNewQuery("v", 1, nil)
	g := transform(t, q, MCVC)
	if len(g.Red) != 1 || g.Red[0] != 0 {
		t.Fatalf("single-vertex query red = %v", g.Red)
	}
}

func TestRedGraphEdges(t *testing.T) {
	g := transform(t, graph.Clique4(), MCVC)
	if got := len(g.RedGraphEdges()); got != 3 {
		t.Errorf("K4 red graph edges = %d, want 3 (triangle)", got)
	}
	g = transform(t, graph.Square(), MCVC)
	if got := len(g.RedGraphEdges()); got != 2 {
		t.Errorf("C4 red graph edges = %d, want 2 (path)", got)
	}
}

func TestCoverModeString(t *testing.T) {
	if MCVC.String() != "MCVC" || MVC.String() != "MVC" {
		t.Error("CoverMode.String broken")
	}
	if Red.String() != "red" || Black.String() != "black" || Ivory.String() != "ivory" {
		t.Error("Color.String broken")
	}
}
