package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"dualsim/internal/graph"
	"dualsim/internal/plan"
)

// rowSink collects what a run's row hook (RunSpec.OnRows) is handed: every
// row under its printed form, with the number of times it arrived.
type rowSink struct {
	mu   sync.Mutex
	seen map[string]int
	n    int
}

func (s *rowSink) onRows(rows []graph.VertexID, width int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen == nil {
		s.seen = make(map[string]int)
	}
	for ; len(rows) > 0; rows = rows[width:] {
		s.seen[fmt.Sprint(rows[:width])]++
		s.n++
	}
}

// snapshot returns a copy of what has arrived so far.
func (s *rowSink) snapshot() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.seen)
}

// bruteRows lists the embeddings of q in g the way rowSink keys them, each
// with the data vertex at the plan's first matching-order position: the
// level-1 window holding that vertex is the one that finds the embedding.
func bruteRows(g *graph.Graph, p *plan.Plan) map[string]graph.VertexID {
	out := make(map[string]graph.VertexID)
	graph.BruteForceEnumerate(g, p.Query, graph.SymmetryBreak(p.Query), func(m []graph.VertexID) bool {
		red := make([]graph.VertexID, 0, p.K)
		for _, qv := range p.RBI.Red {
			red = append(red, m[qv])
		}
		slices.Sort(red) // positions are the red vertices' ranks
		out[fmt.Sprint(m)] = red[p.MatchingOrder[0]]
		return true
	})
	return out
}

// requireRowsBelow fails unless got is exactly the embeddings of want whose
// first-position vertex lies below cursor, each delivered once.
func requireRowsBelow(t *testing.T, what string, got map[string]int, want map[string]graph.VertexID, cursor int) {
	t.Helper()
	expect := 0
	for row, v0 := range want {
		if int(v0) >= cursor {
			continue
		}
		expect++
		if got[row] != 1 {
			t.Errorf("%s: row %s of the windows below cursor %d handed over %d times, want once", what, row, cursor, got[row])
		}
	}
	if len(got) != expect {
		for row := range got {
			if v0, ok := want[row]; !ok || int(v0) >= cursor {
				t.Errorf("%s: row %s handed over before cursor %d (an embedding: %v, its first position %d)",
					what, row, cursor, ok, v0)
			}
		}
	}
}

// TestRowsPrecedeCheckpoint pins the order a resume token relies on: when a
// level-1 window's OnCheckpoint fires, the row hook has been handed exactly
// the embeddings of the windows below the cursor — all of them, tasks that
// ended with a part-filled batch included, each once, and none of a later
// window. Four threads, three or more level-1 windows, plain and compressed
// pages, a solo run and a cohort rider with a second rider matching beside
// it. Run with -race -count=20 (make check does).
func TestRowsPrecedeCheckpoint(t *testing.T) {
	g := streamGraph()
	qs := graph.PaperQueries()
	for _, layout := range []struct {
		pageSize int
		compress bool
	}{{128, false}, {64, true}} {
		db, maxSpan := streamDB(t, g, layout.pageSize, layout.compress)
		for _, q := range []*graph.Query{qs[0], qs[3]} { // q1: two levels; q4: a middle level
			p := mustPlan(t, q)
			want := bruteRows(g, p)
			name := fmt.Sprintf("%s pageSize=%d", q.Name(), layout.pageSize)

			// check is the body of OnCheckpoint: on the orchestrator, with
			// every worker of the window drained.
			check := func(what string, sink *rowSink, windows *int) func(Checkpoint) {
				return func(cp Checkpoint) {
					*windows++
					requireRowsBelow(t, what, sink.snapshot(), want, cp.Cursor)
				}
			}

			t.Run(name+" solo", func(t *testing.T) {
				e, err := NewEngine(db, Options{Threads: 4, IOWorkers: 2, BufferFrames: (p.K + 1) * maxSpan})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				var sink rowSink
				windows := 0
				res, err := e.RunSpecContext(context.Background(), RunSpec{Plan: p,
					OnRows: sink.onRows, OnCheckpoint: check(name+" solo", &sink, &windows)})
				if err != nil {
					t.Fatal(err)
				}
				if windows < 3 || windows != res.Level1Windows {
					t.Fatalf("%d checkpoints over %d level-1 windows, want one each of three or more", windows, res.Level1Windows)
				}
				if uint64(sink.n) != res.Count || len(want) != sink.n {
					t.Errorf("%d rows handed over, count %d, brute force %d", sink.n, res.Count, len(want))
				}
			})

			t.Run(name+" rider", func(t *testing.T) {
				e, err := NewEngine(db, Options{Threads: 4, IOWorkers: 2, BufferFrames: 4 * (p.K - 1) * maxSpan})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				s, err := e.NewSweep(SweepOptions{MaxRiders: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if s.Windows() < 3 {
					t.Fatalf("fixture: %d level-1 windows, want three or more", s.Windows())
				}
				ctx := context.Background()
				var sink, beside rowSink
				windows := 0
				rd, err := s.NewRider(ctx, RunSpec{Plan: p,
					OnRows: sink.onRows, OnCheckpoint: check(name+" rider", &sink, &windows)})
				if err != nil {
					t.Fatal(err)
				}
				defer rd.Close()
				other, err := s.NewRider(ctx, RunSpec{Plan: mustPlan(t, qs[0]), OnRows: beside.onRows})
				if err != nil {
					t.Fatal(err)
				}
				defer other.Close()
				for i := 0; i < s.Windows(); i++ {
					sw, err := s.Load(ctx, i, 0)
					if err != nil {
						t.Fatal(err)
					}
					// As the scheduler does: the riders of a window match
					// side by side.
					var wg sync.WaitGroup
					errs := make([]error, 2)
					for j, r := range []*Rider{rd, other} {
						wg.Add(1)
						go func() {
							defer wg.Done()
							errs[j] = r.ProcessWindow(sw)
						}()
					}
					wg.Wait()
					s.Release(sw)
					if errs[0] != nil || errs[1] != nil {
						t.Fatalf("window %d: %v", i, errs)
					}
				}
				res, err := rd.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if windows != s.Windows() {
					t.Fatalf("%d checkpoints over %d level-1 windows", windows, s.Windows())
				}
				if uint64(sink.n) != res.Count || len(want) != sink.n {
					t.Errorf("%d rows handed over, count %d, brute force %d", sink.n, res.Count, len(want))
				}
				if res, err := other.Finish(); err != nil || uint64(beside.n) != res.Count {
					t.Errorf("the rider beside: %d rows, result %+v, err %v", beside.n, res, err)
				}
			})
		}
	}
}
