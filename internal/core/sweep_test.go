package core

import (
	"reflect"
	"slices"
	"testing"
)

// TestDealSplit pins the cohort deal as a pure function: the rows the issue
// sized it on, then its invariants over every admissible cohort of
// frames 8–64 × MaxRiders 1–4 × Threads 1–4 × maxSpan 1–3 × every multiset of
// depths 1–4 that fits the seats.
func TestDealSplit(t *testing.T) {
	for _, row := range []struct {
		frames, maxRiders, threads, maxSpan int
		depths                              []int
		want                                [][]int
	}{
		{22, 2, 2, 1, []int{2, 3}, [][]int{{2}, {6, 2}}}, // concurrent_mix: q1 or q3 beside q4
		{22, 2, 2, 1, []int{3}, [][]int{{8, 2}}},         // q4 alone: the empty seat's share too
		{22, 2, 2, 1, []int{2}, [][]int{{5}}},            // nobody to use the rest: the share
		{22, 2, 2, 1, []int{2, 2}, [][]int{{5}, {5}}},
		{22, 2, 2, 1, []int{3, 3}, [][]int{{3, 2}, {3, 2}}}, // a full deep cohort: the parent's split
		{22, 2, 2, 1, []int{1, 3}, [][]int{nil, {8, 2}}},
		{64, 4, 4, 2, []int{2, 2, 4}, [][]int{{2}, {2}, {17, 9, 2}}},
		{64, 4, 4, 3, []int{2, 3, 3}, [][]int{{3}, {11, 3}, {11, 3}}}, // every stream holds one maximal vertex
	} {
		c := newCohortBudget(row.frames, row.maxRiders, row.threads, row.maxSpan)
		got, err := c.deal(row.depths)
		if err != nil {
			t.Fatalf("%+v: %v", row, err)
		}
		if !reflect.DeepEqual(got, row.want) {
			t.Errorf("deal(%d frames, %d seats, %d threads, span %d, depths %v) = %v, want %v",
				row.frames, row.maxRiders, row.threads, row.maxSpan, row.depths, got, row.want)
		}
	}

	deals := 0
	for frames := 8; frames <= 64; frames++ {
		for maxRiders := 1; maxRiders <= 4; maxRiders++ {
			for threads := 1; threads <= 4; threads++ {
				for maxSpan := 1; maxSpan <= 3; maxSpan++ {
					c := newCohortBudget(frames, maxRiders, threads, maxSpan)
					var admitted []int // the depths NewRider lets on board
					for k := 1; k <= 4; k++ {
						if _, err := c.levels(c.share, k); err == nil {
							admitted = append(admitted, k)
						}
					}
					var walk func(depths []int)
					walk = func(depths []int) {
						checkDeal(t, c, depths)
						deals++
						if len(depths) == maxRiders {
							return
						}
						for _, k := range admitted {
							if n := len(depths); n == 0 || k >= depths[n-1] {
								walk(append(depths[:n:n], k))
							}
						}
					}
					walk(nil)
				}
			}
		}
	}
	if deals < 10000 {
		t.Fatalf("only %d deals checked", deals)
	}
}

// checkDeal holds one deal to the invariants of cohortBudget.
func checkDeal(t *testing.T, c cohortBudget, depths []int) {
	t.Helper()
	got, err := c.deal(depths)
	if err != nil {
		t.Fatalf("%+v %v: an admitted cohort cannot be dealt: %v", c, depths, err)
	}
	if again, _ := c.deal(depths); !reflect.DeepEqual(got, again) {
		t.Fatalf("%+v %v: dealt %v, then %v", c, depths, got, again)
	}
	total, middle := 0, false
	for _, k := range depths {
		middle = middle || k > 2
	}
	for i, k := range depths {
		if len(got[i]) != k-1 {
			t.Fatalf("%+v %v: rider %d has budgets %v for %d deep levels", c, depths, i, got[i], k-1)
		}
		for _, b := range got[i] {
			if b < c.maxSpan {
				t.Errorf("%+v %v: rider %d dealt %v, a level below one maximal vertex", c, depths, i, got[i])
			}
		}
		n := sum(got[i])
		total += n
		floor, _ := c.levels(c.share, k)
		switch {
		case k > 2 && n < sum(floor):
			t.Errorf("%+v %v: rider %d dealt %v, below the %v it was admitted on", c, depths, i, got[i], floor)
		case k == 2 && !middle && n != c.share:
			t.Errorf("%+v %v: two-level rider %d dealt %v with nobody to use the rest of its share", c, depths, i, got[i])
		case k == 2 && n > c.share:
			t.Errorf("%+v %v: two-level rider %d dealt %v, above its share", c, depths, i, got[i])
		}
		// A rider's deal is a function of the depths beside it, not of its seat.
		if j := slices.Index(depths, k); !reflect.DeepEqual(got[i], got[j]) {
			t.Errorf("%+v %v: riders %d and %d have one depth and deals %v, %v", c, depths, j, i, got[j], got[i])
		}
	}
	if total > c.pool {
		t.Errorf("%+v %v: dealt %v, %d frames of a pool of %d", c, depths, got, total, c.pool)
	}
}
