package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"dualsim/internal/graph"
	"dualsim/internal/plan"
)

// TestEngineConcurrentRunsDefined is the satellite race test: overlapping
// Run/RunContext calls on one engine must each either complete with the
// correct count or fail with ErrEngineBusy — never corrupt state. Run under
// -race this also vouches that the guard itself is sound.
func TestEngineConcurrentRunsDefined(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 64, 400)
	db := buildDB(t, g, 256)
	e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rg, _ := graph.ReorderByDegree(g)
	want := graph.CountOccurrences(rg, graph.Triangle())

	const attempts = 16
	var wg sync.WaitGroup
	results := make([]error, attempts)
	counts := make([]uint64, attempts)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Run(graph.Triangle())
			results[i] = err
			if err == nil {
				counts[i] = res.Count
			}
		}(i)
	}
	wg.Wait()

	ok, busy := 0, 0
	for i, err := range results {
		switch {
		case err == nil:
			ok++
			if counts[i] != want {
				t.Errorf("run %d: count %d, want %d", i, counts[i], want)
			}
		case errors.Is(err, ErrEngineBusy):
			busy++
		default:
			t.Errorf("run %d: unexpected error %v", i, err)
		}
	}
	if ok == 0 {
		t.Error("no run succeeded")
	}
	t.Logf("%d ok, %d busy", ok, busy)
	if e.PinnedFrames() != 0 {
		t.Errorf("PinnedFrames = %d after all runs returned", e.PinnedFrames())
	}

	// The engine stays usable after rejections.
	res, err := e.Run(graph.Triangle())
	if err != nil || res.Count != want {
		t.Fatalf("post-contention run: count=%v err=%v", res, err)
	}
}

// TestRunSpecPerRunCallback verifies the per-run callback (RunSpec.OnRows)
// sees every embedding and is dropped after the run.
func TestRunSpecPerRunCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 32, 150)
	db := buildDB(t, g, 256)
	e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p, err := plan.Prepare(graph.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var rows int
	res, err := e.RunSpecContext(context.Background(), RunSpec{Plan: p, OnRows: func(batch []graph.VertexID, width int) {
		mu.Lock()
		rows += len(batch) / width
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(rows) != res.Count {
		t.Errorf("callback saw %d rows, count %d", rows, res.Count)
	}

	// Next run without a callback must not invoke the previous one.
	before := rows
	if _, err := e.RunPlanContext(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if rows != before {
		t.Error("per-run callback leaked into the next run")
	}
}
