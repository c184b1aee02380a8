package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dualsim/internal/graph"
	"dualsim/internal/obs"
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

// TestSweepRidersMatchSolo drives three different query shapes through one
// shared sweep and checks every rider's count is bit-identical to its solo
// run, and that attribution lands where the contract says: physical reads
// on the sweep's scope, zero on the riders, SharedPages on the riders.
func TestSweepRidersMatchSolo(t *testing.T) {
	queries := []*graph.Query{graph.Triangle(), graph.Square(), graph.House()}
	e, solo := sweepFixture(t, 96, queries)

	sweepScope := obs.NewScope("sweep")
	s, err := e.NewSweep(SweepOptions{MaxRiders: 3, Scope: sweepScope})
	if err != nil {
		t.Fatal(err)
	}
	w := s.Windows()
	if w < 3 {
		t.Fatalf("fixture too small: %d level-1 windows, want >= 3", w)
	}

	ctx := context.Background()
	var riders []*Rider
	scopes := make([]*obs.Scope, len(queries))
	for i, q := range queries {
		scopes[i] = obs.NewScope("")
		rd, err := s.NewRider(ctx, RunSpec{Plan: mustPlan(t, q), Scope: scopes[i]})
		if err != nil {
			t.Fatalf("NewRider(%s): %v", q.Name(), err)
		}
		riders = append(riders, rd)
	}
	for i := 0; i < w; i++ {
		sw, err := s.Load(ctx, i, 0)
		if err != nil {
			t.Fatalf("Load(%d): %v", i, err)
		}
		for _, rd := range riders {
			if err := rd.ProcessWindow(sw); err != nil {
				t.Fatalf("ProcessWindow(%d): %v", i, err)
			}
		}
		s.Release(sw)
	}
	for i, rd := range riders {
		if !rd.Done() {
			t.Fatalf("rider %d not done after %d windows", i, w)
		}
		res, err := rd.Finish()
		if err != nil {
			t.Fatal(err)
		}
		name := queries[i].Name()
		if res.Count != solo[name] {
			t.Errorf("%s: rider count %d, solo %d", name, res.Count, solo[name])
		}
		if got := scopes[i].PagesRead.Load(); got != 0 {
			t.Errorf("%s: rider attributed %d physical reads, want 0 (sweep owns I/O)", name, got)
		}
		if rd.SharedPages() == 0 || scopes[i].SharedPages.Load() != rd.SharedPages() {
			t.Errorf("%s: shared pages rider=%d scope=%d", name, rd.SharedPages(), scopes[i].SharedPages.Load())
		}
		rd.Close()
	}
	s.Close()
	// Every physical read of the cohort was charged to the sweep's scope.
	if got, want := sweepScope.PagesRead.Load(), e.PoolStats().PhysicalReads; got != want {
		t.Errorf("sweep scope pages_read = %d, pool physical reads = %d", got, want)
	}
	// The engine is released: a solo run works again and still agrees.
	res, err := e.Run(graph.Triangle())
	if err != nil {
		t.Fatalf("solo run after sweep: %v", err)
	}
	if res.Count != solo[graph.Triangle().Name()] {
		t.Errorf("post-sweep solo count %d, want %d", res.Count, solo[graph.Triangle().Name()])
	}
}

// TestSweepLateJoinEarlyFinish exercises the merry-go-round lifecycle: a
// rider that boards at window 1 consumes 1..w-1 then wraps to 0, the
// window-0 rider detaches one boundary earlier, and both totals are
// bit-identical to solo. Checkpoint emission follows the join rule: only
// the window-0 rider has a solo-meaningful cursor.
func TestSweepLateJoinEarlyFinish(t *testing.T) {
	tri := graph.Triangle()
	e, solo := sweepFixture(t, 96, []*graph.Query{tri})

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
