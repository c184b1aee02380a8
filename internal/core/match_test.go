package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
	"dualsim/internal/plan"
	"dualsim/internal/rbi"
)

// orderOKOracle and poOKOracle are the post-filters the matcher applied to
// every candidate before order bounds replaced them (matcher.orderOK and the
// partial-order loop of matcher.nonRedOK), kept verbatim as the reference
// the bounds are checked against.
func orderOKOracle(m *matcher, pos int, v graph.VertexID) bool {
	for p := 0; p < m.r.k; p++ {
		if m.posMask&(1<<uint(p)) == 0 || p == pos {
			continue
		}
		if p < pos {
			if !(m.pos2v[p] < v) {
				return false
			}
		} else if !(v < m.pos2v[p]) {
			return false
		}
	}
	return true
}

func poOKOracle(m *matcher, u int, v graph.VertexID) bool {
	for _, c := range m.r.p.PO {
		switch {
		case c.Lo == u && m.qMask&(1<<uint(c.Hi)) != 0:
			if !(v < m.mapping[c.Hi]) {
				return false
			}
		case c.Hi == u && m.qMask&(1<<uint(c.Lo)) != 0:
			if !(m.mapping[c.Lo] < v) {
				return false
			}
		}
	}
	return true
}

// boundIDs are the vertex IDs the bound tests draw from: both ends of the ID
// space, their neighbors, and a few in between.
var boundIDs = []graph.VertexID{0, 1, 2, 7, 8, 9, 1000, math.MaxUint32 - 1, math.MaxUint32}

// checkBounds requires [lo, hi] to hold exactly the IDs ok admits, both by
// membership and through clip, the way the matcher applies it.
func checkBounds(t *testing.T, what string, lo, hi int64, ok func(graph.VertexID) bool) {
	t.Helper()
	var want []graph.VertexID
	for _, v := range boundIDs {
		if in := lo <= int64(v) && int64(v) <= hi; in != ok(v) {
			t.Fatalf("%s: bounds [%d, %d] admit %d = %v, the post-filter says %v", what, lo, hi, v, in, ok(v))
		}
		if ok(v) {
			want = append(want, v)
		}
	}
	if lo > hi {
		return // the matcher returns before clipping an empty interval
	}
	if got := clip(boundIDs, lo, hi); !slices.Equal(got, want) {
		t.Fatalf("%s: clip to [%d, %d] = %v, want %v", what, lo, hi, got, want)
	}
}

// TestOrderBoundsMatchPostFilters: posBounds and poBounds describe exactly
// the candidates orderOK and nonRedOK's partial-order loop used to let
// through — for every set of ascending assigned positions over IDs that
// include 0 and MaxUint32, and for every non-red vertex of the paper queries
// and random ones under arbitrary mappings of the vertices matched before it.
func TestOrderBoundsMatchPostFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	for iter := 0; iter < 2000; iter++ {
		k := 2 + rng.Intn(5)
		m := &matcher{r: &run{k: k}, pos2v: make([]graph.VertexID, k)}
		// Assigned positions hold ascending vertices: the invariant every
		// assignment made within its bounds preserves.
		ids := slices.Clone(boundIDs)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		m.posMask = uint32(rng.Intn(1 << uint(k)))
		assigned := ids[:k]
		slices.Sort(assigned)
		copy(m.pos2v, assigned)
		for pos := 0; pos < k; pos++ {
			if m.posMask&(1<<uint(pos)) != 0 {
				continue
			}
			lo, hi := m.posBounds(pos)
			checkBounds(t, "position", lo, hi, func(v graph.VertexID) bool { return orderOKOracle(m, pos, v) })
		}
	}

	queries := graph.PaperQueries()
	for i := 0; i < 20; i++ {
		queries = append(queries, randomConnectedQuery(rng, 3+rng.Intn(3)))
	}
	bounded := 0
	for _, q := range queries {
		p := mustPlan(t, q)
		m := &matcher{r: &run{p: p, k: p.K}, mapping: make([]graph.VertexID, q.NumVertices())}
		for _, u := range p.RBI.Red {
			m.qMask |= 1 << uint(u)
		}
		for idx, u := range p.RBI.NonRed {
			if b := p.NonRedBounds[idx]; len(b.Lower)+len(b.Upper) > 0 {
				bounded++
			}
			for iter := 0; iter < 200; iter++ {
				for qv := range m.mapping {
					m.mapping[qv] = boundIDs[rng.Intn(len(boundIDs))]
				}
				lo, hi := m.poBounds(idx)
				checkBounds(t, q.Name(), lo, hi, func(v graph.VertexID) bool { return poOKOracle(m, u, v) })
			}
			m.qMask |= 1 << uint(u)
		}
	}
	if bounded == 0 {
		t.Fatal("no non-red vertex with a partial order: the fixture does not exercise poBounds")
	}
}

// TestMatcherPooled: a task borrows its matcher — struct, slices, arena, the
// per-assignment list cache and the bit set that marks hub lists — from the
// run's pool, so in steady state a task allocates nothing and a run's
// allocations do not grow with the number of tasks its windows are cut into.
// Measured on resident q1 and q3 runs' real task body, one root per task:
// q3's ivory pair marks each root's list and probes its neighbours' lists.
func TestMatcherPooled(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(194)), 400, 2400)
	db := buildDB(t, g, 512)
	e, err := NewEngine(db, Options{Threads: 1, BufferFrames: 4 * db.NumPages()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i, q := range []*graph.Query{graph.Triangle(), graph.ChordalSquare()} {
		s, err := e.NewSweep(SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rd, err := s.NewRider(context.Background(), RunSpec{Plan: mustPlan(t, q)})
		if err != nil {
			t.Fatal(err)
		}
		w, err := s.Load(context.Background(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The rider-local view of the window, as ProcessWindow builds it.
		lw := &levelWindow{lo: w.lw.lo, hi: w.lw.hi, pages: w.lw.pages, loaded: w.lw.loaded, tab: w.lw.tab, side: w.lw.side}
		n := graph.VertexID(db.NumVertices())
		tasks := func() {
			for v := graph.VertexID(0); v < n; v++ {
				rd.r.internalEnumerate(0, v, v+1, lw)
			}
		}
		tasks() // grow the arena and the bit set once
		if want := graph.CountOccurrences(g, q); lw.internal.Load() != want {
			t.Fatalf("%s: %d embeddings from %d single-root tasks, brute force %d", q.Name(), lw.internal.Load(), n, want)
		}
		if allocs := testing.AllocsPerRun(5, tasks); allocs != 0 && !RaceEnabled {
			t.Errorf("%s: %.0f allocations over %d tasks, want none", q.Name(), allocs, n)
		}
		if probes := rd.r.scope.IntersectProbe.Load(); i == 1 && probes == 0 {
			t.Errorf("%s: no list was probed against a marked one", q.Name())
		}
		s.Release(w)
		rd.Close()
		s.Close()
	}
}

// TestForestRootWindowNotIntersected covers the operand descend leaves out:
// the window of a node whose candidates are every vertex — level 1 always, a
// deeper forest root too — is an ID interval and lists no vertex
// (loadWindow), so the clipped lists of the connected positions stand in for
// it. Were it an operand, its empty list would empty the candidates of every
// external subtree through it, and the run would find no external embedding.
// Below the buffer, plain and compressed, over plans with each shape the
// elision meets — a connected level-1 node (q1, q5), a level-1 node nothing
// is connected to (q2's two red vertices under MVC are not adjacent) and a
// full middle-level root beside groups where that level has a parent (q2
// with every vertex red) — counting and enumerating rows, the counts equal
// brute force, the run crosses windows and finds external embeddings.
func TestForestRootWindowNotIntersected(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(23)), 400, 2400)
	for _, layout := range []struct {
		pageSize int
		compress bool
	}{{256, false}, {128, true}} {
		db := buildDBOpts(t, g, layout.pageSize, layout.compress)
		for _, c := range []struct {
			q    *graph.Query
			mode rbi.CoverMode
		}{
			{graph.Triangle(), rbi.MCVC},
			{graph.House(), rbi.MCVC},
			{graph.Square(), rbi.MVC},
			{graph.Square(), rbi.AllRed},
		} {
			p, err := plan.Prepare(c.q, plan.Options{CoverMode: c.mode})
			if err != nil {
				t.Fatal(err)
			}
			want := graph.CountOccurrences(g, c.q)
			for _, rows := range []bool{false, true} {
				what := fmt.Sprintf("%s/%v compress=%v rows=%v", c.q.Name(), c.mode, layout.compress, rows)
				e, err := NewEngine(db, Options{Threads: 2, BufferFrames: db.NumPages() / 3})
				if err != nil {
					t.Fatal(err)
				}
				spec := RunSpec{Plan: p}
				if rows {
					spec.OnRows = func([]graph.VertexID, int) {}
				}
				res, err := e.RunSpecContext(context.Background(), spec)
				e.Close()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if res.Count != want {
					t.Errorf("%s: count %d, brute force %d", what, res.Count, want)
				}
				if res.WindowsPerLevel[0] < 2 || res.External == 0 {
					t.Errorf("%s: windows %v, %d external: no external embedding was found",
						what, res.WindowsPerLevel, res.External)
				}
			}
		}
	}
}

// TestTailCounted: a count run adds C(n, Tail) where the plan's tail starts
// (countTail), a run with a row hook enumerates the tail's rows. On planted
// hubs, over the plans with the longest tails — Star(3) (three black leaves),
// the 3-page book (three ivory pages on one spine) and K2,3 under MCVC (a
// two-vertex tail) and MVC (three) — plain and compressed, resident and below
// the buffer, both count what brute force counts, and the rows are the
// brute-force embeddings, each once.
func TestTailCounted(t *testing.T) {
	g := gen.PlantedHubs(300, 4, 40, 36)
	book := graph.MustNewQuery("book3", 5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {0, 4}, {1, 4}})
	k23 := graph.MustNewQuery("k2,3", 5, [][2]int{{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}})
	type query struct {
		q    *graph.Query
		mode rbi.CoverMode
	}
	for _, c := range []query{{graph.Star("s3", 3), rbi.MCVC}, {book, rbi.MCVC}, {k23, rbi.MCVC}, {k23, rbi.MVC}} {
		p, err := plan.Prepare(c.q, plan.Options{CoverMode: c.mode})
		if err != nil {
			t.Fatal(err)
		}
		if p.Tail < 2 {
			t.Fatalf("%s/%v: tail %d, want at least 2", c.q.Name(), c.mode, p.Tail)
		}
		want := map[string]bool{}
		graph.BruteForceEnumerate(g, c.q, graph.SymmetryBreak(c.q), func(m []graph.VertexID) bool {
			want[fmt.Sprint(m)] = true
			return true
		})
		if len(want) == 0 {
			t.Fatalf("%s: no embedding in the fixture", c.q.Name())
		}
		t.Logf("%s/%v: tail %d, %d embeddings", c.q.Name(), c.mode, p.Tail, len(want))
		for _, compress := range []bool{false, true} {
			db := buildDBOpts(t, g, 256, compress)
			for _, resident := range []bool{false, true} {
				for _, rows := range []bool{false, true} {
					what := fmt.Sprintf("%s/%v compress=%v resident=%v rows=%v", c.q.Name(), c.mode, compress, resident, rows)
					frames := db.NumPages() / 3
					if resident {
						frames = 4 * db.NumPages()
					}
					e, err := NewEngine(db, Options{Threads: 2, BufferFrames: frames})
					if err != nil {
						t.Fatal(err)
					}
					var mu sync.Mutex
					seen := map[string]bool{}
					spec := RunSpec{Plan: p}
					if rows {
						spec.OnRows = func(batch []graph.VertexID, width int) {
							mu.Lock()
							defer mu.Unlock()
							for ; len(batch) > 0; batch = batch[width:] {
								k := fmt.Sprint(batch[:width])
								if !want[k] || seen[k] {
									t.Errorf("%s: row %s handed over twice or not an embedding", what, k)
								}
								seen[k] = true
							}
						}
					}
					res, err := e.RunSpecContext(context.Background(), spec)
					e.Close()
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if res.Count != uint64(len(want)) || rows && len(seen) != len(want) {
						t.Errorf("%s: count %d, %d rows, brute force %d", what, res.Count, len(seen), len(want))
					}
					// Star(3) has one red vertex, so nothing of it is external.
					if left := res.WindowsPerLevel[0] >= 2 && (p.K == 1 || res.External > 0); left == resident {
						t.Errorf("%s: windows %v, %d external", what, res.WindowsPerLevel, res.External)
					}
				}
			}
		}
	}
}

// TestTailCountOverflow: a count that does not fit in 64 bits fails the run,
// naming the query, instead of wrapping — or enumerating the embeddings.
// Star(5) on a star of 40 000 leaves has C(40 000, 5) ≈ 8.5e20 at its one red
// match. On two hubs sharing 17 000 leaves each red match's C(17 000, 5) ≈
// 1.18e19 fits but the two together do not: resident, one task adds both;
// below the buffer, the run adds up windows that hold one hub each. One hub
// alone counts exactly, above 2^63.
func TestTailCountOverflow(t *testing.T) {
	star := func(hubs, leaves int) *graph.Graph {
		var edges [][2]graph.VertexID
		for h := 0; h < hubs; h++ {
			for l := 0; l < leaves; l++ {
				edges = append(edges, [2]graph.VertexID{graph.VertexID(h), graph.VertexID(hubs + l)})
			}
		}
		return graph.MustNewGraph(hubs+leaves, edges)
	}
	for _, c := range []struct {
		hubs, leaves int
		want         string // an error's text, or the count
	}{
		{1, 40_000, "C(40000, 5)"},
		{2, 17_000, "overflows 64 bits"},
		{1, 17_000, "11825183016171253400"},
	} {
		db := buildDB(t, star(c.hubs, c.leaves), 4096)
		// Resident, and a quarter of the pages: the hubs' lists then go to
		// different windows.
		for _, frames := range []int{4 * db.NumPages(), db.NumPages()/4 + 8} {
			what := fmt.Sprintf("%d hubs of %d leaves, %d frames", c.hubs, c.leaves, frames)
			e, err := NewEngine(db, Options{Threads: 2, BufferFrames: frames})
			if err != nil {
				t.Fatal(err)
			}
			// Enumerating instead would not end: the deadline turns that into a failure.
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			res, err := e.RunSpecContext(ctx, RunSpec{Plan: mustPlan(t, graph.Star("s5", 5))})
			cancel()
			e.Close()
			switch {
			case err != nil && !(strings.Contains(err.Error(), "s5") && strings.Contains(err.Error(), c.want)):
				t.Errorf("%s: %v, want an overflow naming s5 and %s", what, err, c.want)
			case err == nil && fmt.Sprint(res.Count) != c.want:
				t.Errorf("%s: count %d, want %s", what, res.Count, c.want)
			}
		}
	}
}

// TestBinomialExact pins binomial at the edges of 64 bits: C(67, 33) is the
// largest central binomial that fits, C(68, 34) the first that does not.
func TestBinomialExact(t *testing.T) {
	for _, c := range []struct {
		n, k, want uint64
		ok         bool
	}{
		{0, 1, 0, true}, {5, 1, 5, true}, {3, 5, 0, true}, {68, 2, 2278, true},
		{40_000, 4, 106650667399990000, true}, {40_000, 5, 0, false},
		{67, 33, 14226520737620288370, true}, {68, 34, 0, false},
		{math.MaxUint64, 1, math.MaxUint64, true}, {1 << 32, 2, 9223372034707292160, true},
	} {
		if got, ok := binomial(c.n, c.k); got != c.want || ok != c.ok {
			t.Errorf("binomial(%d, %d) = %d, %v; want %d, %v", c.n, c.k, got, ok, c.want, c.ok)
		}
	}
}
