package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dualsim/internal/graph"
)

// unionSortedSeed is the seed's union: repeatedly scan every list head for
// the global minimum — O(n·k) for k lists of n total elements. Kept as the
// reference the scratch-set read-out is checked against.
func unionSortedSeed(lists [][]graph.VertexID) []graph.VertexID {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]graph.VertexID, 0, total)
	idx := make([]int, len(lists))
	for {
		best := -1
		var bv graph.VertexID
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if best < 0 || l[idx[i]] < bv {
				best, bv = i, l[idx[i]]
			}
		}
		if best < 0 {
			return out
		}
		if len(out) == 0 || out[len(out)-1] != bv {
			out = append(out, bv)
		}
		idx[best]++
	}
}

// randomSortedLists builds k sorted deduplicated lists with overlapping
// value ranges (duplicates across lists are the interesting case).
func randomSortedLists(rng *rand.Rand, k, maxLen, valRange int) [][]graph.VertexID {
	lists := make([][]graph.VertexID, k)
	for i := range lists {
		n := rng.Intn(maxLen + 1)
		seen := make(map[graph.VertexID]bool, n)
		for j := 0; j < n; j++ {
			seen[graph.VertexID(rng.Intn(valRange))] = true
		}
		l := make([]graph.VertexID, 0, len(seen))
		for v := range seen {
			l = append(l, v)
		}
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		lists[i] = l
	}
	return lists
}

// unionSorted unions lists the way the engine does (run.mergedCandidates,
// run.computeChildCandidates): every list marked in set, the marks read out.
func unionSorted(set *vertexSet, lists [][]graph.VertexID) []graph.VertexID {
	for _, l := range lists {
		set.add(l)
	}
	return set.drain(nil)
}

// TestUnionSortedMatchesSeed checks the read-out against the seed's scan on
// random overlapping lists, through one set reused across all trials: a
// drain that left a mark behind would surface in the next union.
func TestUnionSortedMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	set := newVertexSet(60)
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(9)
		lists := randomSortedLists(rng, k, 40, 60)
		want := unionSortedSeed(lists)
		got := unionSorted(&set, lists)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d): union mismatch\n got %v\nwant %v\nlists %v",
				trial, k, got, want, lists)
		}
	}
}

// TestUnionSortedOverlayCases is the table of the scratch-set read-out:
// empty lists anywhere in the input (a fully-tombstoned overlay list merges
// to nothing), all-empty and no input, duplicates within and across lists,
// the IDs at the ends of the set and on either side of a word boundary, the
// inputs left as they were, the set left empty, and the no-aliasing contract
// — the result's backing array must be fresh, because overlay-merged lists
// are retained read-only by the window that produced them.
func TestUnionSortedOverlayCases(t *testing.T) {
	v := func(xs ...int) []graph.VertexID {
		out := make([]graph.VertexID, len(xs))
		for i, x := range xs {
			out[i] = graph.VertexID(x)
		}
		return out
	}
	cases := []struct {
		name  string
		n     int // |V|
		lists [][]graph.VertexID
	}{
		{"nothing", 30, nil},
		{"all empty", 30, [][]graph.VertexID{{}, nil, {}}},
		{"one empty among two", 30, [][]graph.VertexID{v(1, 3), nil}},
		{"empty sandwiched", 30, [][]graph.VertexID{v(2, 4), {}, v(1, 4, 9)}},
		{"leading empties", 30, [][]graph.VertexID{nil, nil, nil, v(7)}},
		{"tombstoned to empty mid-merge", 30, [][]graph.VertexID{v(1), {}, v(1), {}, v(2)}},
		{"single nonempty among empties", 30, [][]graph.VertexID{{}, v(5, 6), {}}},
		{"odd tail after filtering", 30, [][]graph.VertexID{v(1, 2), {}, v(2, 3), v(3, 4)}},
		{"disjoint", 30, [][]graph.VertexID{v(1, 2), v(10, 11), v(20)}},
		{"single list", 30, [][]graph.VertexID{v(1, 3, 5)}},
		{"identical lists", 30, [][]graph.VertexID{v(1, 3, 5), v(1, 3, 5), v(1, 3, 5)}},
		{"duplicate across lists", 30, [][]graph.VertexID{v(1, 2, 9), v(2, 4), v(4, 9)}},
		{"word boundary and both ends", 130, [][]graph.VertexID{v(0, 63, 129), v(64, 129), v(0, 64)}},
		{"last id ends a word", 128, [][]graph.VertexID{v(63, 127), v(0, 127)}},
		{"last id alone in its word", 65, [][]graph.VertexID{v(64), v(0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := make([][]graph.VertexID, len(tc.lists))
			for i, l := range tc.lists {
				before[i] = slices.Clone(l)
			}
			set := newVertexSet(tc.n)
			want := unionSortedSeed(tc.lists)
			got := unionSorted(&set, tc.lists)
			if len(want) == 0 {
				if got != nil {
					t.Fatalf("got %v, want nil", got)
				}
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("got %v, want %v", got, want)
			}
			// Inputs must not be modified (groups keep their candidate
			// sequences), and the result must not share a backing array
			// with any of them (appending to the result must not clobber a
			// list the window retains).
			for i, l := range tc.lists {
				if !slices.Equal(l, before[i]) {
					t.Fatalf("input %d modified: %v, was %v", i, l, before[i])
				}
				if len(l) > 0 && &got[0] == &l[0] {
					t.Fatalf("result aliases input %d", i)
				}
			}
			if again := set.drain(nil); again != nil {
				t.Fatalf("the set still held %v after the read-out", again)
			}
		})
	}
}

// BenchmarkUnionSorted compares the scratch-set read-out against the seed
// scan as the group count grows.
func BenchmarkUnionSorted(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	for _, k := range []int{2, 4, 8, 16} {
		lists := randomSortedLists(rng, k, 2000, 10000)
		set := newVertexSet(10000)
		b.Run(fmt.Sprintf("set/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				unionSorted(&set, lists)
			}
		})
		b.Run(fmt.Sprintf("seed/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				unionSortedSeed(lists)
			}
		})
	}
}
