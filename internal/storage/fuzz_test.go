package storage

import (
	"encoding/binary"
	"slices"
	"testing"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

// FuzzParsePage hardens the page parser against arbitrary bytes and page
// IDs: ParsePage, ParsePageLazy and ParsePageInto must each return an error
// or a structurally valid page — never panic or over-read — and accept and
// decode the same images (parsersAgree). Told the page it reads, pid,
// ParsePageInto must reject exactly the images that parse otherwise but whose
// header names another page, as a permanent corruption naming pid.
func FuzzParsePage(f *testing.F) {
	// Valid pages of both encodings, asked for as the page they are or another.
	w := NewPageWriter(256, 1)
	w.Add(3, []graph.VertexID{4, 5, 6}, false, false)
	f.Add(slices.Clone(w.Bytes()), uint32(1))
	w.Reset(2)
	w.AddCompressed(7, []graph.VertexID{8, 1000, 1000000}, true, false)
	f.Add(slices.Clone(w.Bytes()), uint32(3))
	ws := NewPageWriter(1024, 3)
	ws.AddCompressed(9, longTestAdj(120), false, false) // skip-listed record
	f.Add(slices.Clone(ws.Bytes()), uint32(3))
	// Both encodings on one page, and pages of a built compressed file.
	for i, size := range []int{512, 1024} {
		w := NewPageWriter(size, PageID(i))
		w.Add(20, longTestAdj(30), false, true)
		w.AddCompressed(21, longTestAdj(70+i), false, false)
		w.Add(22, nil, false, false)
		w.AddCompressed(23, []graph.VertexID{0, 1 << 20, 1<<30 + 7}, true, false)
		f.Add(slices.Clone(w.Bytes()), uint32(i+1))
	}
	path := scratch(f, "seed.db")
	if _, err := BuildFromGraph(path, gen.PlantedHubs(300, 4, 120, 28), BuildOptions{PageSize: 256, Compress: true}); err != nil {
		f.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	defer db.Close()
	for pid := 0; pid < db.NumPages(); pid += 7 {
		img := make([]byte, db.PageSize())
		if err := db.ReadPageInto(PageID(pid), img); err != nil {
			f.Fatal(err)
		}
		f.Add(img, uint32(pid+pid%2))
	}
	f.Add(make([]byte, 256), uint32(0))
	f.Add([]byte{1, 2, 3}, uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, pid uint32) {
		parses := parsersAgree(t, data) != nil
		if PageID(pid) == InvalidPage {
			return // asks for no ID
		}
		err := ParsePageInto(&Page{}, data, PageID(pid))
		ce, corrupt := IsCorrupt(err)
		if claims := parses && binary.LittleEndian.Uint32(data) != pid; claims && (!corrupt || ce.Page != PageID(pid) || IsTransient(err)) ||
			!claims && parses != (err == nil) {
			t.Fatalf("page %d asked for: %v (the image parses: %v)", pid, err, parses)
		}
	})
}

// FuzzDecodeDelta hardens the compressed-payload validator: arbitrary
// buffers, counts, and skip-flag combinations must never panic, and an
// accepted payload must decode to exactly count entries.
func FuzzDecodeDelta(f *testing.F) {
	f.Add([]byte{5, 1, 1}, 3, false)
	f.Add([]byte{}, 0, false)
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, 1, false)
	f.Add([]byte{1, 0, 5, 1, 1}, 3, true)
	f.Fuzz(func(t *testing.T, buf []byte, count int, skips bool) {
		if count < 0 || count > 1<<16 {
			return
		}
		c, err := graph.ParseCompressed(buf, count, skips)
		if err != nil {
			return
		}
		if adj := c.AppendTo(nil); len(adj) != count {
			t.Fatalf("decoded %d entries, want %d", len(adj), count)
		}
	})
}

// FuzzSkipRoundTrip drives the whole skip-pointer path from arbitrary
// input: build a sorted unique list, encode it, then require that seeking
// to any target via the skip table and draining the cursor yields exactly
// the plain decode's tail — a skip entry that lands one element off fails
// the comparison.
func FuzzSkipRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint32(3))
	f.Add(make([]byte, 300), uint32(0))
	f.Fuzz(func(t *testing.T, raw []byte, target uint32) {
		adj := make([]graph.VertexID, 0, len(raw))
		prev := uint32(0)
		for i, b := range raw {
			prev += uint32(b)*31 + 1 // strictly ascending
			if i%7 == 0 {
				prev += 1 << 12 // occasional large gap: multi-byte varints
			}
			adj = append(adj, graph.VertexID(prev))
		}
		payload, withSkips := graph.AppendCompressed(nil, adj)
		c, err := graph.ParseCompressed(payload, len(adj), withSkips)
		if err != nil {
			t.Fatalf("encoder output rejected: %v", err)
		}
		plain := c.AppendTo(nil)
		start := 0
		for start < len(plain) && uint32(plain[start]) < target {
			start++
		}
		cu := c.Cursor()
		got, ok := cu.SeekGE(graph.VertexID(target))
		if start == len(plain) {
			if ok {
				t.Fatalf("SeekGE(%d) = %d, want end of %d-entry list", target, got, len(plain))
			}
			return
		}
		if !ok || got != plain[start] {
			t.Fatalf("SeekGE(%d) = (%d,%v), want (%d,true)", target, got, ok, plain[start])
		}
		// Drain: the cursor's tail must equal the plain decode's tail.
		for i := start; i < len(plain); i++ {
			v, more := cu.Next()
			if !more || v != plain[i] {
				t.Fatalf("tail entry %d = (%d,%v), want (%d,true)", i, v, more, plain[i])
			}
		}
		if _, more := cu.Next(); more {
			t.Fatal("cursor yields entries past the end")
		}
	})
}

// longTestAdj returns an ascending list long enough to carry a skip table.
func longTestAdj(n int) []graph.VertexID {
	adj := make([]graph.VertexID, n)
	for i := range adj {
		adj[i] = graph.VertexID(3*i + 1)
	}
	return adj
}
