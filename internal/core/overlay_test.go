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
