package storage

import (
	"runtime"
	"testing"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

// The allocation bounds: what the file's readers allocate per file, per page
// and per parse.

// buildTemp builds g under opt and opens it for the test.
func buildTemp(t *testing.T, g *graph.Graph, opt BuildOptions) *DB {
	t.Helper()
	path := scratch(t, "test.db")
	_, err := BuildFromGraph(path, g, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestParsePageAllocs pins the decode path's allocation behavior: one page
// parse is a constant number of allocations (page, record slice, shared
// slab) no matter how many records it holds, a parse into a page that held
// the image before allocates none, and decoding a lazy record into caller
// scratch allocates nothing.
func TestParsePageAllocs(t *testing.T) {
	w := NewPageWriter(4096, 1)
	for v := graph.VertexID(0); ; v++ {
		if !w.AddCompressed(v, longTestAdj(40), false, false) {
			break
		}
	}
	if w.NumRecords() < 8 {
		t.Fatalf("fixture too small: %d records", w.NumRecords())
	}
	buf := w.Bytes()
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := ParsePage(buf); err != nil {
			t.Fatal(err)
		}
	}); avg > 3 {
		t.Errorf("eager parse: %.1f allocs/op, want <= 3", avg)
	}
	into := &Page{}
	if avg := testing.AllocsPerRun(50, func() {
		if err := ParsePageInto(into, buf, InvalidPage); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("parse into a reused page: %.1f allocs/op, want 0", avg)
	}
	p, err := ParsePageLazy(buf)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]graph.VertexID, 0, 64)
	if avg := testing.AllocsPerRun(50, func() {
		for i := range p.Records {
			scratch = p.Records[i].Comp.AppendTo(scratch[:0])
		}
	}); avg != 0 {
		t.Errorf("lazy decode into scratch: %.1f allocs/op, want 0", avg)
	}
}

// TestOpenAllocatesPerPage: Open reads the page-first array, one entry a
// page, and nothing a vertex. On a file of about 78 vertices a page it
// allocates at most 16 bytes a page beyond a constant for the file handle
// and the array's read buffer — a per-vertex directory would be 12 bytes a
// vertex, about 120 KB here.
func TestOpenAllocatesPerPage(t *testing.T) {
	db := buildTemp(t, gen.ChungLu(10000, 50000, 2.8, 1), BuildOptions{PageSize: 4096})
	if perPage := db.NumVertices() / db.NumPages(); perPage < 50 {
		t.Fatalf("fixture: %d vertices on %d pages, want many vertices a page", db.NumVertices(), db.NumPages())
	}
	const opens = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < opens; i++ {
		o, err := Open(db.Path())
		if err != nil {
			t.Fatal(err)
		}
		o.Close()
	}
	runtime.ReadMemStats(&after)
	bytes, limit := (after.TotalAlloc-before.TotalAlloc)/opens, uint64(16*db.NumPages()+8192)
	t.Logf("Open allocates %d bytes on %d pages, %d vertices", bytes, db.NumPages(), db.NumVertices())
	if bytes > limit {
		t.Errorf("Open allocates %d bytes on a file of %d pages and %d vertices, want at most %d", bytes, db.NumPages(), db.NumVertices(), limit)
	}
}

// TestCompactWalkAllocs: compaction's walk allocates its page memory once
// per file — a second walk over every vertex of a file whose hubs span
// several pages, plain and compressed, allocates nothing.
func TestCompactWalkAllocs(t *testing.T) {
	g := gen.PlantedHubs(600, 4, 400, 38)
	for _, compress := range []bool{false, true} {
		db := buildTemp(t, g, BuildOptions{PageSize: 256, Compress: compress})
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

// TestWholeFileScanAllocs: a whole-file scan allocates per file, not per
// page — VerifyPages and Stats make as many allocations on a file of about
// twice the pages.
func TestWholeFileScanAllocs(t *testing.T) {
	allocs := func(n int) (pages int, verify, stats float64) {
		db := buildTemp(t, gen.ErdosRenyi(n, 4*n, 42), BuildOptions{PageSize: 256})
		verify = testing.AllocsPerRun(3, func() {
			if err := db.VerifyPages().Err(); err != nil {
				t.Fatal(err)
			}
		})
		stats = testing.AllocsPerRun(3, func() {
			if _, err := db.Stats(); err != nil {
				t.Fatal(err)
			}
		})
		return db.NumPages(), verify, stats
	}
	p1, v1, s1 := allocs(300)
	p2, v2, s2 := allocs(600)
	if p2 < 2*p1-2 {
		t.Fatalf("fixtures of %d and %d pages", p1, p2)
	}
	if v1 != v2 || s1 != s2 {
		t.Fatalf("allocations on %d pages: VerifyPages %.0f, Stats %.0f; on %d pages: %.0f, %.0f", p1, v1, s1, p2, v2, s2)
	}
}
