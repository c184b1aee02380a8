package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dualsim/internal/faultdb"
	"dualsim/internal/graph"
	"dualsim/internal/plan"
)

func prepare(t *testing.T, q *graph.Query) *plan.Plan {
	t.Helper()
	p, err := plan.Prepare(q, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCheckpointResumeBitIdentical is the tentpole invariant: a run resumed
// from ANY window-boundary checkpoint — on the same engine or on one with a
// different buffer budget (different window chopping) — finishes with
// exactly the counts of an uninterrupted run.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := randomGraph(rng, 200, 1400)
	db := buildDB(t, g, 128)

	for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4()} {
		q := q
		t.Run(q.Name(), func(t *testing.T) {
			want := wantCount(t, g, q)
			p := prepare(t, q)
			eng, err := NewEngine(db, Options{Threads: 3, BufferFrames: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			var cps []Checkpoint
			res, err := eng.RunSpecContext(context.Background(), RunSpec{
				Plan:         p,
				OnCheckpoint: func(cp Checkpoint) { cps = append(cps, cp) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("full run count = %d, want %d", res.Count, want)
			}
			if len(cps) < 2 {
				t.Fatalf("want multiple checkpoints (multi-window run), got %d", len(cps))
			}
			for i, cp := range cps {
				if cp.K != p.K {
					t.Fatalf("checkpoint %d: K=%d, want %d", i, cp.K, p.K)
				}
				if i > 0 && (cp.Cursor <= cps[i-1].Cursor || cp.Windows != cps[i-1].Windows+1) {
					t.Fatalf("checkpoints not monotonic: %+v then %+v", cps[i-1], cp)
				}
			}
			last := cps[len(cps)-1]
			if last.Cursor != db.NumVertices() || last.Internal+last.External != want {
				t.Fatalf("final checkpoint %+v does not close the run (want cursor=%d, total=%d)",
					last, db.NumVertices(), want)
			}

			// Resume from every boundary on the same engine.
			for i, cp := range cps {
				res, err := eng.RunSpecContext(context.Background(), RunSpec{Plan: p, Resume: &cp})
				if err != nil {
					t.Fatalf("resume from checkpoint %d: %v", i, err)
				}
				if !res.Resumed {
					t.Fatalf("resume from checkpoint %d: Resumed not set", i)
				}
				if res.Count != want {
					t.Fatalf("resume from checkpoint %d: count = %d, want %d", i, res.Count, want)
				}
			}

			// Resume on an engine with double the buffer: the windows after
			// the cursor chop differently, the counts must not.
			mid := cps[len(cps)/2]
			eng2, err := NewEngine(db, Options{Threads: 2, BufferFrames: 32})
			if err != nil {
				t.Fatal(err)
			}
			defer eng2.Close()
			res2, err := eng2.RunSpecContext(context.Background(), RunSpec{Plan: p, Resume: &mid})
			if err != nil {
				t.Fatal(err)
			}
			if res2.Count != want {
				t.Fatalf("resume under different chopping: count = %d, want %d", res2.Count, want)
			}
		})
	}
}

// TestResumeSkipsCompletedWindows asserts the I/O side of resume: replaying
// from a late checkpoint must read fewer pages than the full run — windows
// before the cursor are skipped, not re-read.
func TestResumeSkipsCompletedWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := randomGraph(rng, 200, 1400)
	db := buildDB(t, g, 128)
	q := graph.Triangle()
	p := prepare(t, q)
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
	p := prepare(t, graph.Triangle())
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
