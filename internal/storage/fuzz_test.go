package storage

import (
	"math/rand"
	"path/filepath"
	"testing"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

// FuzzParsePage hardens the page parser against arbitrary bytes: it must
// either return an error or a structurally valid page — never panic or
// over-read — and the fused walk (ParsePage) must accept exactly what the
// lazy one (ParsePageLazy) accepts, decoding what it would decode.
func FuzzParsePage(f *testing.F) {
	// Seed with valid pages of both encodings.
	w := NewPageWriter(256, 1)
	w.Add(3, []graph.VertexID{4, 5, 6}, false, false)
	f.Add(append([]byte(nil), w.Bytes()...))
	w.Reset(2)
	w.AddCompressed(7, []graph.VertexID{8, 1000, 1000000}, true, false)
	f.Add(append([]byte(nil), w.Bytes()...))
	ws := NewPageWriter(1024, 3)
	ws.AddCompressed(9, longTestAdj(120), false, false) // skip-listed record
	f.Add(append([]byte(nil), ws.Bytes()...))
	// Full compressed pages: random mixed records, and pages of a built
	// compressed file.
	rng := rand.New(rand.NewSource(28))
	for _, size := range []int{512, 1024} {
		img, _ := mixedPage(rng, size)
		f.Add(img)
	}
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.db")
	if _, err := BuildFromGraph(path, gen.PlantedHubs(300, 4, 120, 28), BuildOptions{PageSize: 256, Compress: true, TempDir: dir}); err != nil {
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
		f.Add(img)
	}
	f.Add(make([]byte, 256))
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		parsersAgree(t, data)
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
