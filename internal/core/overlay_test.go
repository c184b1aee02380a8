package core

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// buildDBOpts builds g to a temp database without relabeling (SkipReorder),
// so the on-disk vertex IDs are exactly g's — the coordinate system the
// delta overlay mutates in.
func buildDBOpts(t *testing.T, g *graph.Graph, pageSize int, compress bool) *storage.DB {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "o.db")
	opts := storage.BuildOptions{PageSize: pageSize, TempDir: dir, SkipReorder: true, Compress: compress}
	if _, err := storage.BuildFromGraph(path, g, opts); err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// mutateRandom applies batches random edge mutations of the given kind
// ("insert", "delete", "mixed") to both the delta store and an in-memory
// edge-set oracle seeded from g.
func mutateRandom(t *testing.T, st *delta.Store, g *graph.Graph, rng *rand.Rand, batches int, kind string) *graph.Graph {
	t.Helper()
	n := g.NumVertices()
	edges := map[[2]graph.VertexID]bool{}
	for _, e := range g.EdgeList() {
		u, w := e[0], e[1]
		if u > w {
			u, w = w, u
		}
		edges[[2]graph.VertexID{u, w}] = true
	}
	for b := 0; b < batches; b++ {
		ops := make([]delta.Op, 1+rng.Intn(5))
		for i := range ops {
			u := graph.VertexID(rng.Intn(n))
			w := graph.VertexID((int(u) + 1 + rng.Intn(n-1)) % n)
			if u > w {
				u, w = w, u
			}
			ins := true
			switch kind {
			case "insert":
			case "delete":
				ins = false
			default:
				ins = rng.Intn(2) == 0
			}
			ops[i] = delta.Op{Insert: ins, U: u, V: w}
			if ins {
				edges[[2]graph.VertexID{u, w}] = true
			} else {
				delete(edges, [2]graph.VertexID{u, w})
			}
		}
		if _, err := st.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	var list [][2]graph.VertexID
	for e := range edges {
		list = append(list, e)
	}
	return graph.MustNewGraph(n, list)
}

// runOverlay executes spec on a fresh engine with the smallest buffer the
// engine accepts for 3 threads.
func runOverlay(ctx context.Context, t *testing.T, db *storage.DB, spec RunSpec) (*Result, error) {
	t.Helper()
	e, err := NewEngine(db, Options{Threads: 3, BufferFrames: 14})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	return e.RunSpecContext(ctx, spec)
}

// TestOverlayMatchesRebuild is the live-ingest correctness pin: an
// enumeration over (base file + overlay snapshot) must produce counts
// bit-identical to a from-scratch rebuild of the mutated graph — for
// insert-only, delete-only, and mixed batches, plain and compressed base
// files, across the paper queries, with small enough buffers to force
// multi-window runs. Every overlay run is also interrupted at its 2nd
// level-1 checkpoint and resumed on a fresh engine with the same snapshot:
// the resume cursor and the overlay merge meet in the one window loader,
// and the total must not move.
func TestOverlayMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	base := randomGraph(rng, 80, 400)
	for _, compress := range []bool{false, true} {
		for _, kind := range []string{"insert", "delete", "mixed"} {
			db := buildDBOpts(t, base, 256, compress)
			st := delta.NewStore(base.NumVertices(), db.Epoch())
			mutated := mutateRandom(t, st, base, rng, 12, kind)
			snap := st.Snapshot()
			if snap.Empty() {
				t.Fatalf("%s/%v: mutation batches produced an empty overlay", kind, compress)
			}

			e, err := NewEngine(db, Options{Threads: 3, BufferFrames: 24})
			if err != nil {
				t.Fatal(err)
			}
			rebuilt := buildDBOpts(t, mutated, 256, compress)
			e2, err := NewEngine(rebuilt, Options{Threads: 3, BufferFrames: 24})
			if err != nil {
				t.Fatal(err)
			}

			small := buildDBOpts(t, base, 64, compress)
			resumedArms := 0
			for _, q := range graph.PaperQueries() {
				p := mustPlan(t, q)
				got, err := e.RunSpecContext(context.Background(), RunSpec{Plan: p, Overlay: snap})
				if err != nil {
					t.Fatalf("%s/%s/compress=%v overlay run: %v", kind, q.Name(), compress, err)
				}
				want, err := e2.RunSpecContext(context.Background(), RunSpec{Plan: p})
				if err != nil {
					t.Fatalf("%s/%s/compress=%v rebuilt run: %v", kind, q.Name(), compress, err)
				}
				if got.Count != want.Count {
					t.Errorf("%s/%s/compress=%v: overlay count %d (int=%d ext=%d), rebuilt %d (int=%d ext=%d)",
						kind, q.Name(), compress, got.Count, got.Internal, got.External,
						want.Count, want.Internal, want.External)
				}
				if bf := graph.CountOccurrences(mutated, q); got.Count != bf {
					t.Errorf("%s/%s/compress=%v: overlay count %d, brute force %d",
						kind, q.Name(), compress, got.Count, bf)
				}

				// Resumed arm, on small pages and the tightest buffer (most
				// level-1 windows): stop at the 2nd checkpoint, resume on a
				// fresh engine.
				var cps []Checkpoint
				ctx, cancel := context.WithCancel(context.Background())
				_, err = runOverlay(ctx, t, small, RunSpec{Plan: p, Overlay: snap, OnCheckpoint: func(cp Checkpoint) {
					if cps = append(cps, cp); len(cps) == 2 {
						cancel()
					}
				}})
				cancel()
				if err == nil {
					continue // two windows or fewer: nothing left to resume
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s/%s/compress=%v interrupted overlay run: %v", kind, q.Name(), compress, err)
				}
				resumedArms++
				res, err := runOverlay(context.Background(), t, small, RunSpec{Plan: p, Overlay: snap, Resume: &cps[1]})
				if err != nil {
					t.Fatalf("%s/%s/compress=%v resumed overlay run: %v", kind, q.Name(), compress, err)
				}
				if res.Count != got.Count {
					t.Errorf("%s/%s/compress=%v: overlay run resumed at %+v counted %d, uninterrupted (== rebuilt == brute force) %d",
						kind, q.Name(), compress, cps[1], res.Count, got.Count)
				}
			}
			if resumedArms == 0 {
				t.Errorf("%s/compress=%v: no overlay run outlived its 2nd checkpoint; the resumed arm is vacuous", kind, compress)
			}
			e.Close()
			e2.Close()
		}
	}
}

// TestOverlayEmptySnapshotIsBasePath: an empty snapshot must not change
// counts (and exercises the RunSpec normalization to the nil fast path).
func TestOverlayEmptySnapshotIsBasePath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 40, 150)
	db := buildDBOpts(t, g, 256, false)
	st := delta.NewStore(g.NumVertices(), 0)
	e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := graph.Triangle()
	p := mustPlan(t, q)
	got, err := e.RunSpecContext(context.Background(), RunSpec{Plan: p, Overlay: st.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	if want := graph.CountOccurrences(g, q); got.Count != want {
		t.Fatalf("empty-overlay count %d, want %d", got.Count, want)
	}
}

// TestOverlayRiderNotEligible: the shared sweep refuses overlay specs.
func TestOverlayRiderNotEligible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 40, 150)
	db := buildDBOpts(t, g, 256, false)
	e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, err := e.NewSweep(SweepOptions{MaxRiders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := delta.NewStore(g.NumVertices(), 0)
	if _, err := st.Apply([]delta.Op{{Insert: true, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Plan: mustPlan(t, graph.Triangle()), Overlay: st.Snapshot()}
	if _, err := s.NewRider(context.Background(), spec); !errors.Is(err, ErrRiderNotEligible) {
		t.Fatalf("overlay spec: err = %v, want ErrRiderNotEligible", err)
	}
	// An empty snapshot is eligible: it is the base graph.
	empty := delta.NewStore(g.NumVertices(), 0).Snapshot()
	r, err := s.NewRider(context.Background(), RunSpec{Plan: mustPlan(t, graph.Triangle()), Overlay: empty})
	if err != nil {
		t.Fatalf("empty overlay spec: %v", err)
	}
	r.Close()
}

// TestOverlayIsolatedVertexGainsEdges: inserts attaching a degree-0 vertex
// must surface in enumeration (the empty-record path through applyOverlay).
func TestOverlayIsolatedVertexGainsEdges(t *testing.T) {
	// Vertices 0..2 form a triangle; 3 is isolated.
	g := graph.MustNewGraph(4, [][2]graph.VertexID{{0, 1}, {0, 2}, {1, 2}})
	db := buildDBOpts(t, g, 256, false)
	st := delta.NewStore(4, 0)
	if _, err := st.Apply([]delta.Op{
		{Insert: true, U: 3, V: 0},
		{Insert: true, U: 3, V: 1},
	}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(db, Options{Threads: 1, BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p := mustPlan(t, graph.Triangle())
	res, err := e.RunSpecContext(context.Background(), RunSpec{Plan: p, Overlay: st.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 {
		t.Fatalf("triangles after attaching isolated vertex = %d, want 2", res.Count)
	}
}

// TestOverlayStreamDispatch pins the overlay on the engine's one ordering:
// every page's load callback merges the snapshot into the records it touches
// and queues the page's last-level task at once, while other pages of the
// pass are still loading — an overlay run overlaps matching with the load
// like a base run. Four I/O workers with a per-page latency stagger the
// callbacks; plain and compressed files at three buffer sizes (one maximal
// vertex per level, half the graph, the resident regime) run q1, q3 and q4
// under an overlay holding every shape the merge treats differently: a
// multi-page hub mutated (side table above the last level, rooted from its
// concatenated chunks in a pass; the overlay applied either way), a vertex tombstoned to
// empty (its on-disk record must not show through), an isolated vertex
// attached, a Del absent from base and an Add already in it. Counts must
// equal brute force on the rebuilt graph. Run with -race -count=20 (make
// check does).
func TestOverlayStreamDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	const bg, hubs, n = 300, 4, 310 // 304..309 are isolated
	edges := map[[2]graph.VertexID]bool{}
	for _, e := range skewedGraph(rng, bg+hubs, hubs, 150).EdgeList() {
		edges[[2]graph.VertexID{min(e[0], e[1]), max(e[0], e[1])}] = true
	}
	edges[[2]graph.VertexID{9, 11}] = true // 9-10-11: a triangle through the vertex emptied below
	build := func() *graph.Graph {
		list := make([][2]graph.VertexID, 0, len(edges))
		for e := range edges {
			list = append(list, e)
		}
		return graph.MustNewGraph(n, list)
	}
	base := build()

	const hub, emptied = graph.VertexID(bg), graph.VertexID(10)
	var ops []delta.Op
	mutate := func(insert bool, u, w graph.VertexID) {
		ops = append(ops, delta.Op{Insert: insert, U: u, V: w})
		if e := [2]graph.VertexID{min(u, w), max(u, w)}; insert {
			edges[e] = true
		} else {
			delete(edges, e)
		}
	}
	// (i) The hub loses six neighbours, gains six others and an isolated one.
	for _, w := range base.Adj(hub)[:6] {
		mutate(false, hub, w)
	}
	for w, added := graph.VertexID(0), 0; added < 6; w++ {
		if !base.HasEdge(hub, w) {
			mutate(true, hub, w)
			added++
		}
	}
	mutate(true, hub, 305)
	// (ii) Every neighbour tombstoned.
	for _, w := range base.Adj(emptied) {
		mutate(false, emptied, w)
	}
	// (iii) 304-20-21: a triangle through a vertex whose record is empty.
	mutate(true, 304, 20)
	mutate(true, 304, 21)
	// (iv) Idempotent set semantics: a Del absent from base, an Add in it.
	if base.HasEdge(30, 50) || !base.HasEdge(40, 41) || !base.HasEdge(20, 21) {
		t.Fatal("fixture: (30,50) must be absent from base, (40,41) and (20,21) present")
	}
	mutate(false, 30, 50)
	mutate(true, 40, 41)
	mutated := build()

	queries := []*graph.Query{graph.Triangle(), graph.ChordalSquare(), graph.Clique4()}
	want := make([]uint64, len(queries))
	for i, q := range queries {
		want[i] = graph.CountOccurrences(mutated, q)
		if want[i] == graph.CountOccurrences(base, q) {
			t.Fatalf("%s: the overlay does not change the count; the fixture is vacuous", q.Name())
		}
	}
	for _, compress := range []bool{false, true} {
		db := buildDBOpts(t, base, 128, compress)
		if first, last := db.SpanOf(hub); first == last {
			t.Fatalf("compress=%v: the hub fits one page; the side path is not exercised", compress)
		}
		st := delta.NewStore(n, db.Epoch())
		for i := 0; i < len(ops); i += 4 {
			if _, err := st.Apply(ops[i:min(i+4, len(ops))]); err != nil {
				t.Fatal(err)
			}
		}
		snap := st.Snapshot()
		probe, err := NewEngine(db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		maxSpan := probe.maxSpan
		probe.Close()
		for i, q := range queries {
			p := mustPlan(t, q)
			tight := p.K * maxSpan
			for _, frames := range []int{tight, (tight + db.NumPages()) / 2, db.NumPages() + p.K*maxSpan} {
				e, err := NewEngine(db, Options{Threads: 3, IOWorkers: 4, BufferFrames: frames,
					PerPageLatency: 5 * time.Microsecond})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.RunSpecContext(context.Background(), RunSpec{Plan: p, Overlay: snap})
				e.Close()
				if err != nil {
					t.Fatalf("%s compress=%v frames=%d: %v", q.Name(), compress, frames, err)
				}
				if res.Count != want[i] {
					t.Errorf("%s compress=%v frames=%d: count %d (int=%d ext=%d, windows %v), rebuilt graph %d",
						q.Name(), compress, frames, res.Count, res.Internal, res.External, res.WindowsPerLevel, want[i])
				}
			}
		}
	}
}
