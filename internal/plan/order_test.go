package plan

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dualsim/internal/graph"
	"dualsim/internal/rbi"
)

// searchMatchingOrder is the exhaustive search chooseMatchingOrder replaced:
// every permutation of positions, the first strictly better one kept.
func searchMatchingOrder(groups []*VGroup, k int, worst bool) ([]int, int) {
	best, bestScore := make([]int, k), -1
	perm, used := make([]int, k), make([]bool, k)
	var rec func(l int)
	rec = func(l int) {
		if l == k {
			score := 0
			for _, vg := range groups {
				score += buildForest(vg, perm, k).Roots - 1
			}
			if bestScore < 0 || worst && score > bestScore || !worst && score < bestScore {
				bestScore = score
				copy(best, perm)
			}
			return
		}
		for p := 0; p < k; p++ {
			if !used[p] {
				used[p], perm[l] = true, p
				rec(l + 1)
				used[p] = false
			}
		}
	}
	rec(0)
	return best, bestScore
}

// TestMatchingOrderMatchesSearch: the DP over prefix sets picks the order and
// Cartesian count the exhaustive search picks, best and worst, for MCVC and
// MVC plans of every connected query of up to 6 vertices (one per isomorphism
// class), all-red plans of those up to 5, and MCVC plans of random ones of 7
// and 8.
func TestMatchingOrderMatchesSearch(t *testing.T) {
	type job struct {
		q    *graph.Query
		mode rbi.CoverMode
	}
	var jobs []job
	seen := map[string]bool{}
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
			q, err := graph.NewQuery("all", n, edges)
			if err != nil {
				continue
			}
			if code, _ := graph.CanonicalCode(q); !seen[code] {
				seen[code] = true
				jobs = append(jobs, job{q, rbi.MCVC}, job{q, rbi.MVC})
				if n <= 5 { // an all-red 6-vertex plan has up to 720 groups: seconds of search each
					jobs = append(jobs, job{q, rbi.AllRed})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 40; i++ {
		var edges [][2]int
		n := 7 + i%2
		for v := 1; v < n; v++ {
			edges = append(edges, [2]int{rng.Intn(v), v})
		}
		for j := rng.Intn(n); j > 0; j-- {
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				edges = append(edges, [2]int{a, b})
			}
		}
		jobs = append(jobs, job{graph.MustNewQuery("rand", n, edges), rbi.MCVC})
	}
	for _, j := range jobs {
		p, err := Prepare(j.q, Options{CoverMode: j.mode})
		if err != nil {
			t.Fatalf("%v (%v): %v", j.q.Edges(), j.mode, err)
		}
		for _, worst := range []bool{false, true} {
			order, carts := chooseMatchingOrder(p.Groups, p.K, worst)
			wantOrder, wantCarts := searchMatchingOrder(p.Groups, p.K, worst)
			if fmt.Sprint(order) != fmt.Sprint(wantOrder) || carts != wantCarts {
				t.Fatalf("%v (%v, worst=%v): order %v with %d cartesians, the search picks %v with %d",
					j.q.Edges(), j.mode, worst, order, carts, wantOrder, wantCarts)
			}
		}
	}
}

// TestPrepareLargeQueriesFast: planning neither searches K! orders nor lists
// the n!-member automorphism group, so queries the old planner took seconds
// to minutes on (or ran out of memory on) plan in well under a second.
func TestPrepareLargeQueriesFast(t *testing.T) {
	if raceEnabled {
		t.Skip("timing bound; -race slows planning several-fold")
	}
	for _, q := range []*graph.Query{graph.Clique("k11", 11), graph.Cycle("c9", 9), graph.Path("p10", 10)} {
		start := time.Now()
		if _, err := Prepare(q, Options{}); err != nil {
			t.Fatalf("%s: %v", q.Name(), err)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: Prepare took %v, want under 1 s", q.Name(), took)
		}
	}
	// Rigid cubic queries, the Frucht graph (LCF [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2])
	// and a 16-vertex one: every vertex has one degree, so every orbit
	// question is a search that fails. Their stabilizer chain still takes
	// milliseconds; Prepare then lists the K! linear extensions of an empty
	// partial order (ROADMAP 13(b)), which is not bounded here.
	frucht := [][2]int{}
	for i, d := range []int{-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2} {
		frucht = append(frucht, [2]int{i, (i + 1) % 12})
		if j := (i + d + 12) % 12; i < j {
			frucht = append(frucht, [2]int{i, j})
		}
	}
	for _, q := range []*graph.Query{graph.MustNewQuery("frucht", 12, frucht), graph.MustNewQuery("cubic16", 16, [][2]int{
		{9, 10}, {8, 15}, {1, 2}, {6, 7}, {0, 6}, {5, 14}, {4, 13}, {2, 3}, {4, 15}, {11, 12}, {0, 5}, {1, 7},
		{12, 13}, {0, 15}, {9, 12}, {2, 4}, {13, 14}, {1, 8}, {3, 10}, {6, 10}, {7, 14}, {5, 8}, {9, 11}, {3, 11}})} {
		start := time.Now()
		if aut := graph.AutomorphismCount(q); aut != 1 {
			t.Fatalf("%s: |Aut| = %d, want 1", q.Name(), aut)
		}
		if took := time.Since(start); took > 50*time.Millisecond {
			t.Errorf("%s: the stabilizer chain took %v, want under 50 ms", q.Name(), took)
		}
	}
}
