package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dualsim/internal/faultdb"
	"dualsim/internal/graph"
)

// TestResumeSkipsCompletedWindows asserts the I/O side of resume: replaying
// from a late checkpoint must read fewer pages than the full run — windows
// before the cursor are skipped, not re-read.
func TestResumeSkipsCompletedWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := randomGraph(rng, 200, 1400)
	db := buildDB(t, g, 128)
	q := graph.Triangle()
	p := mustPlan(t, q)
	want := wantCount(t, g, q)

	fdb := faultdb.Wrap(db, faultdb.Options{}) // no rules: a pure read counter
	eng, err := NewEngine(fdb, Options{Threads: 2, BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var cps []Checkpoint
	if _, err := eng.RunSpecContext(context.Background(), RunSpec{
		Plan:         p,
		OnCheckpoint: func(cp Checkpoint) { cps = append(cps, cp) },
	}); err != nil {
		t.Fatal(err)
	}
	fullReads := fdb.Reads()
	if fullReads == 0 || len(cps) < 2 {
		t.Fatalf("fixture too small: %d reads, %d checkpoints", fullReads, len(cps))
	}

	fdb2 := faultdb.Wrap(db, faultdb.Options{})
	eng2, err := NewEngine(fdb2, Options{Threads: 2, BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	res, err := eng2.RunSpecContext(context.Background(), RunSpec{Plan: p, Resume: &cps[len(cps)-2]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("resumed count = %d, want %d", res.Count, want)
	}
	if fdb2.Reads() >= fullReads {
		t.Fatalf("resume from the second-to-last window read %d pages, full run read %d: completed windows were re-read",
			fdb2.Reads(), fullReads)
	}
}

func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	g := randomGraph(rng, 60, 300)
	db := buildDB(t, g, 256)
	p := mustPlan(t, graph.Triangle())
	eng, err := NewEngine(db, Options{Threads: 1, BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	for _, cp := range []Checkpoint{
		{K: p.K + 1},
		{K: p.K, Cursor: -1},
		{K: p.K, Cursor: db.NumVertices() + 1},
		{K: p.K, Cursor: 0, Windows: -1},
	} {
		if _, err := eng.RunSpecContext(context.Background(), RunSpec{Plan: p, Resume: &cp}); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("checkpoint %+v: got %v, want ErrBadCheckpoint", cp, err)
		}
	}

	// A terminal checkpoint resumes to an immediate, correct completion.
	want := wantCount(t, g, graph.Triangle())
	res, err := eng.RunSpecContext(context.Background(), RunSpec{Plan: p, Resume: &Checkpoint{
		K: p.K, Cursor: db.NumVertices(), Windows: 3, Internal: want, External: 0,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want || res.Internal != want {
		t.Fatalf("terminal resume: count=%d internal=%d, want %d", res.Count, res.Internal, want)
	}
}
