package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dualsim/internal/graph"
)

// randomConnectedQuery builds a connected query from a seed: spanning tree
// plus extra edges.
func randomConnectedQuery(seed int64, n int) *graph.Query {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{rng.Intn(v), v})
	}
	for i := 0; i < rng.Intn(2*n); i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	return graph.MustNewQuery("rand", n, edges)
}

// TestPrepareQuickInvariants property-tests the planner over random
// connected queries:
//   - sequence count x |Aut(q_R restricted by PO)| relations are hard to
//     state directly, so we check the structural invariants instead:
//   - every group's sequences share the group topology;
//   - sequences across groups are disjoint permutations;
//   - forests cover every level exactly once with valid parents.
func TestPrepareQuickInvariants(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := 3 + int(n8%4) // 3..6 query vertices
		q := randomConnectedQuery(seed, n)
		p, err := Prepare(q, Options{})
		if err != nil {
			return false
		}
		seen := map[string]bool{}
		for _, vg := range p.Groups {
			if len(vg.Sequences) == 0 {
				return false
			}
			for _, s := range vg.Sequences {
				if len(s) != p.K {
					return false
				}
				key := ""
				for _, u := range s {
					key += string(rune('a' + u))
				}
				if seen[key] {
					return false // a sequence in two groups
				}
				seen[key] = true
				// Topology agreement.
				for a := 0; a < p.K; a++ {
					for b := a + 1; b < p.K; b++ {
						if q.HasEdge(s[a], s[b]) != vg.HasTopologyEdge(a, b) {
							return false
						}
					}
				}
			}
			f := vg.Forest
			if f.Parent[0] != -1 {
				return false
			}
			for l := 1; l < p.K; l++ {
				if f.Parent[l] >= l {
					return false
				}
				if f.Parent[l] >= 0 && !vg.HasTopologyEdge(p.MatchingOrder[f.Parent[l]], p.MatchingOrder[l]) {
					return false
				}
			}
		}
		// Matching order is a permutation.
		used := make([]bool, p.K)
		for _, pos := range p.MatchingOrder {
			if pos < 0 || pos >= p.K || used[pos] {
				return false
			}
			used[pos] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSequenceCountQuick checks the counting identity: the number of
// full-order query sequences equals the number of linear extensions of the
// internal partial orders over the red vertices — and multiplying by the
// number of pruned sequences recovers |V_R|! when PO is empty.
func TestSequenceCountQuick(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := 3 + int(n8%3)
		q := randomConnectedQuery(seed, n)
		p, err := Prepare(q, Options{})
		if err != nil {
			return false
		}
		// Count linear extensions by brute force.
		red := p.RBI.Red
		idx := map[int]int{}
		for i, u := range red {
			idx[u] = i
		}
		k := len(red)
		perm := make([]int, k)
		used := make([]bool, k)
		count := 0
		var rec func(i int)
		rec = func(i int) {
			if i == k {
				// Check PO.
				pos := make([]int, k)
				for pp, ii := range perm {
					pos[ii] = pp
				}
				for _, c := range p.RBI.InternalPO {
					if pos[idx[c.Lo]] >= pos[idx[c.Hi]] {
						return
					}
				}
				count++
				return
			}
			for j := 0; j < k; j++ {
				if !used[j] {
					used[j] = true
					perm[i] = j
					rec(i + 1)
					used[j] = false
				}
			}
		}
		rec(0)
		return count == p.NumFullOrderSequences()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
