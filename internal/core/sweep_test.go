package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dualsim/internal/graph"
	"dualsim/internal/plan"
)

// sweepFixture builds a database with enough pages for a multi-window
// sweep, plus solo baselines for the given queries on an independent
// engine with the same frame budget.
func sweepFixture(t *testing.T, frames int, queries []*graph.Query) (*Engine, map[string]uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(rng, 2000, 8000)
	db := buildDB(t, g, 256)

	solo := make(map[string]uint64)
	se, err := NewEngine(db, Options{Threads: 2, BufferFrames: frames})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		res, err := se.Run(q)
		if err != nil {
			t.Fatalf("solo %s: %v", q.Name(), err)
		}
		solo[q.Name()] = res.Count
	}
	se.Close()

	e, err := NewEngine(db, Options{Threads: 4, BufferFrames: frames})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, solo
}

func mustPlan(t *testing.T, q *graph.Query) *plan.Plan {
	t.Helper()
	p, err := plan.Prepare(q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSweepLateJoinEarlyFinish exercises the merry-go-round lifecycle: a
// rider that boards at window 1 consumes 1..w-1 then wraps to 0, the
// window-0 rider detaches one boundary earlier, and both totals are
// bit-identical to solo. Checkpoint emission follows the join rule: only
// the window-0 rider has a solo-meaningful cursor. Then a rider with a middle
// level rides the same sweep alone, beside a two-level rider, and alone
// again: every boundary deals it what the table says for who is on board,
// and its count is the solo run's whatever schedule that made.
func TestSweepLateJoinEarlyFinish(t *testing.T) {
	tri, clique := graph.Triangle(), graph.Clique4()
	e, solo := sweepFixture(t, 96, []*graph.Query{tri, clique})

	s, err := e.NewSweep(SweepOptions{MaxRiders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := s.Windows()
	if w < 3 {
		t.Fatalf("fixture too small: %d level-1 windows, want >= 3", w)
	}

	ctx := context.Background()
	var cpA, cpB int
	a, err := s.NewRider(ctx, RunSpec{Plan: mustPlan(t, tri), OnCheckpoint: func(Checkpoint) { cpA++ }})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewRider(ctx, RunSpec{Plan: mustPlan(t, tri), OnCheckpoint: func(Checkpoint) { cpB++ }})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(idx int, riders ...*Rider) {
		t.Helper()
		sw, err := s.Load(ctx, idx, 0)
		if err != nil {
			t.Fatalf("Load(%d): %v", idx, err)
		}
		for _, rd := range riders {
			if err := rd.ProcessWindow(sw); err != nil {
				t.Fatalf("ProcessWindow(%d): %v", idx, err)
			}
		}
		s.Release(sw)
	}
	serve(0, a) // A boards alone at window 0
	for i := 1; i < w; i++ {
		serve(i, a, b) // B late-joins at the next boundary
	}
	if !a.Done() {
		t.Fatal("A not done after a full cycle")
	}
	if b.Done() {
		t.Fatal("B done before wrapping to window 0")
	}
	resA, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	a.Close() // early finish: A detaches, the sweep keeps cycling for B
	serve(0, b)
	if !b.Done() {
		t.Fatal("B not done after its wrap-around window")
	}
	resB, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	b.Close()

	want := solo[tri.Name()]
	if resA.Count != want || resB.Count != want {
		t.Errorf("counts A=%d B=%d, solo %d", resA.Count, resB.Count, want)
	}
	// A consumed the partition as a solo iterator would: one checkpoint per
	// window. B's prefix starts mid-range — no solo-meaningful cursor.
	if cpA != w {
		t.Errorf("window-0 rider emitted %d checkpoints, want %d", cpA, w)
	}
	if cpB != 0 {
		t.Errorf("late joiner emitted %d checkpoints, want 0", cpB)
	}

	// 96 frames, 2 seats, 4 threads, single-page vertices: a pool of 48, a
	// stream of 4.
	if e.maxSpan != 1 {
		t.Fatalf("fixture has %d-page vertices; the budgets below assume 1", e.maxSpan)
	}
	alone, beside := []int{0, 44, 4}, []int{0, 40, 4}
	d, err := s.NewRider(ctx, RunSpec{Plan: mustPlan(t, clique)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var two *Rider
	for i := 0; i < w; i++ {
		want := alone
		if i == 1 {
			// A two-level rider boards for one window and is abandoned.
			if two, err = s.NewRider(ctx, RunSpec{Plan: mustPlan(t, tri)}); err != nil {
				t.Fatal(err)
			}
			want = beside
		}
		sw, err := s.Load(ctx, i, 0)
		if err != nil {
			t.Fatalf("Load(%d): %v", i, err)
		}
		if got := d.r.winBudget; !slices.Equal(got, want) {
			t.Errorf("window %d: the deep rider was dealt %v, want %v", i, got, want)
		}
		if i == 1 {
			if got := two.r.winBudget; !slices.Equal(got, []int{0, 4}) {
				t.Errorf("window %d: the two-level rider was dealt %v beside a middle level, want [0 4]", i, got)
			}
			if err := two.ProcessWindow(sw); err != nil {
				t.Fatal(err)
			}
			two.Close()
		}
		if err := d.ProcessWindow(sw); err != nil {
			t.Fatalf("ProcessWindow(%d): %v", i, err)
		}
		s.Release(sw)
	}
	resD, err := d.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if resD.Count != solo[clique.Name()] {
		t.Errorf("dealt rider counted %d, solo %d", resD.Count, solo[clique.Name()])
	}
	if resD.BufferFrames != 48 {
		t.Errorf("dealt rider reports %d frames, want its largest deal, 48", resD.BufferFrames)
	}
	if n := e.PinnedFrames(); n != 0 {
		t.Errorf("%d frames still pinned", n)
	}
	// Every rider's windows reach the registry, the abandoned one's at its Close.
	if got := e.reg.Snapshot().Counters["dualsim_windows_level1_total"]; got != uint64(3*w+1) {
		t.Errorf("dualsim_windows_level1_total = %d after %d rider windows", got, 3*w+1)
	}
}

// TestRiderCloseBeforeReleaseBooksShared: two riders process one window and
// one is closed before the sweep's Release. The window's shared pages are
// booked once per rider all the same — Release returns the rider still on
// board, the early Close returns its own — so a scheduler's ledger, which
// adds both, loses none.
func TestRiderCloseBeforeReleaseBooksShared(t *testing.T) {
	tri := graph.Triangle()
	e, _ := sweepFixture(t, 96, []*graph.Query{tri})
	s, err := e.NewSweep(SweepOptions{MaxRiders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	var riders [2]*Rider
	for i := range riders {
		if riders[i], err = s.NewRider(ctx, RunSpec{Plan: mustPlan(t, tri)}); err != nil {
			t.Fatal(err)
		}
		defer riders[i].Close()
	}
	sw, err := s.Load(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range riders {
		if err := rd.ProcessWindow(sw); err != nil {
			t.Fatal(err)
		}
	}
	pages := uint64(sw.Pages())
	early := riders[0].Close()
	_, released := s.Release(sw)
	if pages == 0 || early+released != 2*pages {
		t.Errorf("shared pages: early Close %d + Release %d, want twice the window's %d pages", early, released, pages)
	}
}

// TestSweepRiderEligibility: resume specs bounce with ErrRiderNotEligible
// and a busy engine refuses a second sweep (and solo runs) until Close.
func TestSweepRiderEligibility(t *testing.T) {
	tri := graph.Triangle()
	e, _ := sweepFixture(t, 96, []*graph.Query{tri})

	s, err := e.NewSweep(SweepOptions{MaxRiders: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRider(context.Background(),
		RunSpec{Plan: mustPlan(t, tri), Resume: &Checkpoint{}}); !errors.Is(err, ErrRiderNotEligible) {
		t.Fatalf("resume spec: err = %v, want ErrRiderNotEligible", err)
	}
	if _, err := e.NewSweep(SweepOptions{}); !errors.Is(err, ErrEngineBusy) {
		t.Fatalf("second sweep: err = %v, want ErrEngineBusy", err)
	}
	if _, err := e.Run(tri); !errors.Is(err, ErrEngineBusy) {
		t.Fatalf("solo run during sweep: err = %v, want ErrEngineBusy", err)
	}
	s.Close()
	if _, err := e.Run(tri); err != nil {
		t.Fatalf("solo run after sweep close: %v", err)
	}
}

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
