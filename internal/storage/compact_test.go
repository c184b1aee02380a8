package storage

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dualsim/internal/delta"
	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

func TestEpochRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "epoch.db")
	g := completeGraphT(t, 8)
	if _, err := BuildFromGraph(path, g, BuildOptions{PageSize: MinPageSize}); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 0 {
		t.Fatalf("fresh file epoch = %d, want 0", db.Epoch())
	}
	db.Close()
	if err := StampEpoch(path, 42); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Epoch() != 42 {
		t.Fatalf("epoch = %d, want 42", db.Epoch())
	}
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after stamp: %v", err)
	}
}

func TestStampEpochRejectsNonDB(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not.db")
	if err := os.WriteFile(path, make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := StampEpoch(path, 1); err == nil {
		t.Fatal("expected error stamping a non-database file")
	}
}

// TestCompactFoldsOverlay mutates a graph through a delta store, compacts,
// and checks the new file equals a from-scratch build of the mutated graph
// (same vertex IDs, same adjacency, epoch preserved, integrity clean).
func TestCompactFoldsOverlay(t *testing.T) {
	for _, compress := range []bool{false, true} {
		dir := t.TempDir()
		base := filepath.Join(dir, "base.db")
		g := completeGraphT(t, 12)
		if _, err := BuildFromGraph(base, g, BuildOptions{PageSize: MinPageSize, Compress: compress}); err != nil {
			t.Fatal(err)
		}
		db, err := Open(base)
		if err != nil {
			t.Fatal(err)
		}

		st := delta.NewStore(12, 0)
		rng := rand.New(rand.NewSource(17))
		edges := map[[2]graph.VertexID]bool{}
		for u := 0; u < 12; u++ {
			for w := u + 1; w < 12; w++ {
				edges[[2]graph.VertexID{graph.VertexID(u), graph.VertexID(w)}] = true
			}
		}
		for i := 0; i < 40; i++ {
			u := graph.VertexID(rng.Intn(12))
			w := graph.VertexID((int(u) + 1 + rng.Intn(11)) % 12)
			if u > w {
				u, w = w, u
			}
			ins := rng.Intn(2) == 0
			if _, err := st.Apply([]delta.Op{{Insert: ins, U: u, V: w}}); err != nil {
				t.Fatal(err)
			}
			if ins {
				edges[[2]graph.VertexID{u, w}] = true
			} else {
				delete(edges, [2]graph.VertexID{u, w})
			}
		}
		snap := st.Snapshot()

		compacted := filepath.Join(dir, "compacted.db")
		if _, err := Compact(compacted, db, snap.Apply, snap.Epoch(), BuildOptions{Compress: compress}); err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		db.Close()

		cdb, err := Open(compacted)
		if err != nil {
			t.Fatal(err)
		}
		if cdb.Epoch() != snap.Epoch() {
			t.Fatalf("compress=%v: epoch = %d, want %d", compress, cdb.Epoch(), snap.Epoch())
		}
		if err := cdb.VerifyIntegrity(); err != nil {
			t.Fatalf("compress=%v: integrity: %v", compress, err)
		}
		got, err := cdb.LoadGraph()
		if err != nil {
			t.Fatal(err)
		}
		var want [][2]graph.VertexID
		for e := range edges {
			want = append(want, e)
		}
		wantG, err := graph.NewGraph(12, want)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 12; v++ {
			vid := graph.VertexID(v)
			if gotAdj, wantAdj := got.Adj(vid), wantG.Adj(vid); !sameIDs(gotAdj, wantAdj) {
				t.Fatalf("compress=%v vertex %d: got %v want %v", compress, v, gotAdj, wantAdj)
			}
		}
		if cdb.NumEdges() != uint64(len(edges)) {
			t.Fatalf("compress=%v: NumEdges = %d, want %d", compress, cdb.NumEdges(), len(edges))
		}
		cdb.Close()
		// K12's degrees tie, so the base file kept the graph's IDs: a build of
		// the folded edge set in those IDs, stamped with the snapshot's epoch,
		// is the file a compaction must write, byte for byte.
		rebuilt := filepath.Join(dir, "rebuilt.db")
		if _, err := BuildFromGraph(rebuilt, wantG, BuildOptions{PageSize: MinPageSize, SkipReorder: true, Compress: compress}); err != nil {
			t.Fatal(err)
		}
		if err := StampEpoch(rebuilt, snap.Epoch()); err != nil {
			t.Fatal(err)
		}
		if a, b := readFileT(t, compacted), readFileT(t, rebuilt); !bytes.Equal(a, b) {
			t.Fatalf("compress=%v: compacted file (%d bytes) differs from a rebuild of the folded graph (%d bytes)", compress, len(a), len(b))
		}
	}
}

// TestCompactKeepsEncoding: the folded file is written in the base file's
// record encoding, whatever opt.Compress says — plain stays plain and
// compressed stays compressed. Vertex 0 is isolated and stays first, so the
// encoding has to be read past an empty record, which carries no payload.
func TestCompactKeepsEncoding(t *testing.T) {
	var edges [][2]graph.VertexID
	for u := 1; u < 12; u++ {
		for w := u + 1; w < 12; w++ {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(u), graph.VertexID(w)})
		}
	}
	g := graph.MustNewGraph(12, edges)
	for _, tc := range []struct{ base, asked bool }{
		{false, false}, {false, true}, // plain -> plain
		{true, true}, {true, false}, // compressed -> compressed
	} {
		dir := t.TempDir()
		base := filepath.Join(dir, "base.db")
		if _, err := BuildFromGraph(base, g, BuildOptions{PageSize: MinPageSize, SkipReorder: true, Compress: tc.base}); err != nil {
			t.Fatal(err)
		}
		db, err := Open(base)
		if err != nil {
			t.Fatal(err)
		}
		st := delta.NewStore(12, 0)
		if _, err := st.Apply([]delta.Op{{Insert: false, U: 1, V: 2}, {Insert: true, U: 0, V: 5}}); err != nil {
			t.Fatal(err)
		}
		snap := st.Snapshot()
		out := filepath.Join(dir, "out.db")
		if _, err := Compact(out, db, snap.Apply, snap.Epoch(), BuildOptions{Compress: tc.asked}); err != nil {
			t.Fatal(err)
		}
		db.Close()
		cdb, err := Open(out)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := cdb.Stats()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if tc.base {
			want = stats.Records
		}
		if stats.CompressedRecs != want {
			t.Errorf("base compressed=%v, asked %v: %d of %d records compressed, want %d",
				tc.base, tc.asked, stats.CompressedRecs, stats.Records, want)
		}
		cdb.Close()
	}
}

// TestCompactSwapFile exercises the rename swap: the live path serves the
// compacted content afterwards.
func TestCompactSwapFile(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.db")
	g := completeGraphT(t, 6)
	if _, err := BuildFromGraph(live, g, BuildOptions{PageSize: MinPageSize}); err != nil {
		t.Fatal(err)
	}
	db, err := Open(live)
	if err != nil {
		t.Fatal(err)
	}
	st := delta.NewStore(6, 0)
	if _, err := st.Apply([]delta.Op{{Insert: false, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	tmp := filepath.Join(dir, "live.db.compact")
	if _, err := Compact(tmp, db, snap.Apply, snap.Epoch(), BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := SwapFile(tmp, live); err != nil {
		t.Fatal(err)
	}
	ndb, err := Open(live)
	if err != nil {
		t.Fatal(err)
	}
	defer ndb.Close()
	if ndb.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", ndb.Epoch())
	}
	adj, err := adjacencyOf(ndb, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range adj {
		if w == 1 {
			t.Fatal("deleted edge (0,1) survived the swap")
		}
	}
}

// TestCompactPageWalk pins the compactor's page-by-page walk of the base
// file on the layouts where a walk can go wrong — a hub whose last chunk
// ends exactly on a page boundary (the next vertex starts a fresh page), a
// hub ending mid-page, isolated vertices in the middle and at the tail —
// under an overlay that tombstones out of both hubs, grows one, empties a
// vertex, attaches an isolated one, and carries a Del absent from base and
// an Add already in it. The output must be byte-identical to what the
// per-vertex DB.Adjacency walk this one replaced produced (hashes recorded
// on that code), and one compaction must read every base page exactly
// once.
func TestCompactPageWalk(t *testing.T) {
	const n = 96
	var edges [][2]graph.VertexID
	edge := func(u, w int) { edges = append(edges, [2]graph.VertexID{graph.VertexID(u), graph.VertexID(w)}) }
	for w := 1; w <= 52; w++ {
		edge(0, w) // 52 entries: two full 128-byte pages
	}
	for w := 2; w <= 71; w++ {
		edge(1, w)
	}
	for v := 2; v <= 70; v += 2 {
		edge(v, v+1)
	}
	for v := 3; v+7 <= 71; v += 3 {
		edge(v, v+7)
	}
	for v := 80; v < 90; v++ { // a ring; 72..79 and 90..95 are isolated
		edge(v, 80+(v+1-80)%10)
	}
	g, err := graph.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	ops := []delta.Op{
		{Insert: false, U: 0, V: 5}, {Insert: false, U: 0, V: 52}, {Insert: false, U: 1, V: 2},
		{Insert: true, U: 0, V: 60},
		{Insert: false, U: 80, V: 81}, {Insert: false, U: 80, V: 89}, // 80 merges to empty
		{Insert: true, U: 95, V: 3}, {Insert: true, U: 95, V: 90}, // 95 was isolated
		{Insert: false, U: 10, V: 90}, {Insert: true, U: 2, V: 3}, // absent Del, present Add
	}
	for _, tc := range []struct {
		compress bool
		pageSize int
		golden   string
	}{
		{false, 128, "65cdbac4a0349d8382c12911459e17dd207be7f9f10259258bcd3c9f7cda92e8"},
		{true, 64, "4f7c3809055c999c0b2fcd707434a3543f5a29bf1496b2fd9feec748ed26943c"},
	} {
		dir := t.TempDir()
		base := filepath.Join(dir, "base.db")
		if _, err := BuildFromGraph(base, g, BuildOptions{PageSize: tc.pageSize, SkipReorder: true, Compress: tc.compress}); err != nil {
			t.Fatal(err)
		}
		db, err := Open(base)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if _, last := db.SpanOf(0); last == 0 {
			t.Fatalf("compress=%v: vertex 0 fits one page; the fixture has no multi-page vertex", tc.compress)
		}
		if first, _ := db.SpanOf(1); !tc.compress && (degreeOf(t, db, 0) != 2*MaxEntriesPerPage(tc.pageSize) || first != 2) {
			t.Fatalf("vertex 0 (degree %d) does not end on a page boundary: vertex 1 starts on page %d", degreeOf(t, db, 0), first)
		}
		st := delta.NewStore(n, db.Epoch())
		for i := 0; i < len(ops); i += 3 {
			if _, err := st.Apply(ops[i:min(i+3, len(ops))]); err != nil {
				t.Fatal(err)
			}
		}
		snap := st.Snapshot()

		out := filepath.Join(dir, "out.db")
		if _, err := Compact(out, db, snap.Apply, snap.Epoch(), BuildOptions{Compress: tc.compress}); err != nil {
			t.Fatal(err)
		}
		image, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(image)); got != tc.golden {
			t.Errorf("compress=%v: compacted file hashes to %s, the per-vertex walk wrote %s", tc.compress, got, tc.golden)
		}

		reads := map[PageID]int{}
		walk := &baseWalk{db: db, read: func(pid PageID, buf []byte) error {
			reads[pid]++
			return db.ReadPageInto(pid, buf)
		}}
		if _, err := compact(filepath.Join(dir, "counted.db"), walk, snap.Apply, snap.Epoch()); err != nil {
			t.Fatal(err)
		}
		for pid := 0; pid < db.NumPages(); pid++ {
			if got := reads[PageID(pid)]; got != 1 {
				t.Errorf("compress=%v: page %d read %d times by one compaction, want 1", tc.compress, pid, got)
			}
		}
	}
}

// TestCompactWalkAllocs: compaction's walk allocates its page memory once
// per file — a second walk over every vertex of a file whose hubs span
// several pages, plain and compressed, allocates nothing.
func TestCompactWalkAllocs(t *testing.T) {
	g := gen.PlantedHubs(600, 4, 400, 38)
	for _, compress := range []bool{false, true} {
		db, _ := buildTemp(t, g, BuildOptions{PageSize: 256, Compress: compress})
		walk := &baseWalk{db: db, read: db.ReadPageInto}
		if err := walk.start(); err != nil {
			t.Fatal(err)
		}
		walkAll := func() {
			for v := graph.VertexID(0); int(v) < db.NumVertices(); v++ {
				if _, err := walk.adjacency(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := walk.load(0); err != nil {
				t.Fatal(err)
			}
		}
		walkAll()
		if avg := testing.AllocsPerRun(3, walkAll); avg != 0 {
			t.Errorf("compress=%v: a walk over %d pages allocates %.0f times", compress, db.NumPages(), avg)
		}
	}
}

func completeGraphT(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var edges [][2]graph.VertexID
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(u), graph.VertexID(w)})
		}
	}
	g, err := graph.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameIDs(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
