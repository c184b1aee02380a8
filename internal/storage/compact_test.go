package storage

import (
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"dualsim/internal/delta"
	"dualsim/internal/graph"
)

func TestEpochRoundTrip(t *testing.T) {
	db := buildTemp(t, complete(8), BuildOptions{PageSize: MinPageSize})
	if db.Epoch() != 0 {
		t.Fatalf("fresh file epoch = %d, want 0", db.Epoch())
	}
	if err := StampEpoch(db.Path(), 42); err != nil {
		t.Fatal(err)
	}
	stamped, err := Open(db.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer stamped.Close()
	if stamped.Epoch() != 42 || stamped.VerifyIntegrity() != nil {
		t.Fatalf("epoch %d, want 42; integrity after the stamp: %v", stamped.Epoch(), stamped.VerifyIntegrity())
	}
}

func TestStampEpochRejectsNonDB(t *testing.T) {
	path := scratch(t, "not.db")
	if err := os.WriteFile(path, make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := StampEpoch(path, 1); err == nil {
		t.Fatal("expected error stamping a non-database file")
	}
}

// TestCompactSwapFile exercises the rename swap: the live path serves the
// compacted content afterwards.
func TestCompactSwapFile(t *testing.T) {
	db := buildTemp(t, complete(6), BuildOptions{PageSize: MinPageSize})
	st := delta.NewStore(6, 0)
	if _, err := st.Apply([]delta.Op{{Insert: false, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	snap, tmp := st.Snapshot(), scratch(t, "live.db.compact")
	if _, err := Compact(tmp, db, snap.Apply, snap.Epoch(), BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := SwapFile(tmp, db.Path()); err != nil {
		t.Fatal(err)
	}
	swapped, err := Open(db.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer swapped.Close()
	if g, err := swapped.LoadGraph(); swapped.Epoch() != 1 || err != nil || g.HasEdge(0, 1) {
		t.Fatalf("after the swap: epoch %d (want 1), %v, or the deleted edge (0,1) survived", swapped.Epoch(), err)
	}
}

// TestCompactPageWalk pins the format: the bytes a compaction writes on the
// layouts where its page walk can go wrong — a hub whose last chunk ends
// exactly on a page boundary (the next vertex starts a fresh page), a hub
// ending mid-page, isolated vertices in the middle and at the tail — under an
// overlay that tombstones out of both hubs, grows one, empties a vertex,
// attaches an isolated one, and carries a Del absent from base and an Add
// already in it. The hashes were recorded on the per-vertex walk the page
// walk replaced; TestStorageOracle holds compaction to the graph otherwise.
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
	g := graph.MustNewGraph(n, edges)
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
		db := buildTemp(t, g, BuildOptions{PageSize: tc.pageSize, SkipReorder: true, Compress: tc.compress})
		st := delta.NewStore(n, db.Epoch())
		for i := 0; i < len(ops); i += 3 {
			if _, err := st.Apply(ops[i:min(i+3, len(ops))]); err != nil {
				t.Fatal(err)
			}
		}
		snap := st.Snapshot()
		out := scratch(t, "out.db")
		if _, err := Compact(out, db, snap.Apply, snap.Epoch(), BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		image, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(image)); got != tc.golden {
			t.Errorf("compress=%v: compacted file hashes to %s, the per-vertex walk wrote %s", tc.compress, got, tc.golden)
		}
	}
}
