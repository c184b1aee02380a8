package storage

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

func TestPageWriterRoundTrip(t *testing.T) {
	w := NewPageWriter(256, 7)
	if !w.Add(1, []graph.VertexID{2, 3, 4}, false, false) {
		t.Fatal("Add failed")
	}
	if !w.Add(2, nil, false, false) {
		t.Fatal("Add empty failed")
	}
	if !w.Add(3, []graph.VertexID{9}, true, false) {
		t.Fatal("Add failed")
	}
	p, err := ParsePage(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != 7 {
		t.Fatalf("page ID = %d, want 7", p.ID)
	}
	if len(p.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(p.Records))
	}
	if p.Records[0].Vertex != 1 || !reflect.DeepEqual(p.Records[0].Adj, []graph.VertexID{2, 3, 4}) {
		t.Fatalf("record 0 = %+v", p.Records[0])
	}
	if len(p.Records[1].Adj) != 0 || p.Records[1].Vertex != 2 {
		t.Fatalf("record 1 = %+v", p.Records[1])
	}
	if !p.Records[2].Continues || p.Records[2].Continuation {
		t.Fatalf("record 2 flags = %+v", p.Records[2])
	}
	if p.First() != 1 || p.Slots() != 3 {
		t.Fatalf("index of %d slots from vertex %d, want 3 from 1", p.Slots(), p.First())
	}
}

func TestPageWriterCapacity(t *testing.T) {
	const size = 128
	w := NewPageWriter(size, 0)
	// Fill until Add refuses; then verify no overflow and parse works.
	added := 0
	for i := 0; ; i++ {
		if !w.Add(graph.VertexID(i), []graph.VertexID{1, 2}, false, false) {
			break
		}
		added++
	}
	if added == 0 {
		t.Fatal("nothing fit in page")
	}
	p, err := ParsePage(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Records) != added {
		t.Fatalf("parsed %d records, added %d", len(p.Records), added)
	}
	// Bound check: each record is 16 bytes + 4 slot = 20; page budget 120.
	want := (size - pageHeaderSize) / (recordHeaderSize + 8 + slotSize)
	if added != want {
		t.Fatalf("added %d records, want %d", added, want)
	}
}

func TestPageWriterReset(t *testing.T) {
	w := NewPageWriter(128, 1)
	w.Add(5, []graph.VertexID{6}, false, false)
	w.Reset(2)
	if w.NumRecords() != 0 {
		t.Fatal("reset did not clear records")
	}
	w.Add(7, nil, false, false)
	p, err := ParsePage(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != 2 || len(p.Records) != 1 || p.Records[0].Vertex != 7 {
		t.Fatalf("after reset: %+v", p)
	}
}

func TestMaxEntriesPerPage(t *testing.T) {
	n := MaxEntriesPerPage(256)
	w := NewPageWriter(256, 0)
	adj := make([]graph.VertexID, n)
	if !w.Add(0, adj, false, false) {
		t.Fatalf("MaxEntriesPerPage(256)=%d does not fit", n)
	}
	w.Reset(0)
	if w.Add(0, make([]graph.VertexID, n+1), false, false) {
		t.Fatalf("%d entries should not fit", n+1)
	}
}

func TestParsePageRejectsGarbage(t *testing.T) {
	if _, err := ParsePage(make([]byte, 4)); err == nil {
		t.Error("short buffer accepted")
	}
	buf := make([]byte, 256)
	buf[4] = 200 // absurd record count
	if _, err := ParsePage(buf); err == nil {
		t.Error("corrupt record count accepted")
	}
}

// TestPageRoundTripQuick writes random records and parses them back. A
// valid draw is a dense ascending vertex-ID run from a random first vertex,
// and every parse must return it whole; the same records with one vertex
// moved off the run (the checksum written over them as for any page) must be
// rejected by every parse as a CorruptPageError.
func TestPageRoundTripQuick(t *testing.T) {
	f := func(first uint16, n, adjLen, skew uint8) bool {
		type rec struct {
			v                       graph.VertexID
			adj                     []graph.VertexID
			continues, continuation bool
		}
		write := func(recs []rec) []byte {
			w := NewPageWriter(4096, 3)
			for _, r := range recs {
				if !w.Add(r.v, r.adj, r.continues, r.continuation) {
					t.Fatalf("%d records of up to 19 entries do not fit a 4096-byte page", len(recs))
				}
			}
			return append([]byte(nil), w.Bytes()...)
		}
		recs := make([]rec, 1+int(n)%8)
		for i := range recs {
			v := graph.VertexID(first) + graph.VertexID(i)
			adj := make([]graph.VertexID, int(adjLen)%20)
			for j := range adj {
				adj[j] = v + graph.VertexID(j) + 1
			}
			recs[i] = rec{v, adj, i%2 == 0, i%3 == 0}
		}
		p, err := ParsePage(write(recs))
		if err != nil || len(p.Records) != len(recs) || p.First() != recs[0].v || p.Slots() != len(recs) {
			return false
		}
		for i, want := range recs {
			g := p.Records[i]
			adj, _, _ := p.List(i)
			if g.Vertex != want.v || g.Continues != want.continues || g.Continuation != want.continuation ||
				!slices.Equal(g.Adj, want.adj) || !slices.Equal(adj, want.adj) {
				return false
			}
		}
		if len(recs) < 2 {
			return true
		}
		// Move one vertex off the run: a gap, a repeat or a step back.
		i := 1 + int(skew)%(len(recs)-1)
		recs[i].v = recs[i-1].v + graph.VertexID([]int{2, 0, -1}[int(skew)%3])
		return rejectedByEveryParse(t, write(recs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// rejectedByEveryParse reports whether ParsePage, ParsePageLazy and
// ParsePageInto (into a page that held a valid image) all reject img as a
// CorruptPageError.
func rejectedByEveryParse(t *testing.T, img []byte) bool {
	t.Helper()
	into := &Page{}
	w := NewPageWriter(MinPageSize, 9)
	w.Add(1, []graph.VertexID{0, 2}, false, false)
	if err := ParsePageInto(into, w.Bytes()); err != nil {
		t.Fatalf("ParsePageInto of a valid page: %v", err)
	}
	var ce *CorruptPageError
	_, err := ParsePage(img)
	ok := errors.As(err, &ce)
	_, err = ParsePageLazy(img)
	ok = ok && errors.As(err, &ce)
	return ok && errors.As(ParsePageInto(into, img), &ce) && into.Slots() == 0
}

func TestChecksumDetectsCorruption(t *testing.T) {
	w := NewPageWriter(256, 3)
	w.Add(1, []graph.VertexID{2, 3}, false, false)
	img := append([]byte(nil), w.Bytes()...)
	if _, err := ParsePage(img); err != nil {
		t.Fatalf("pristine page rejected: %v", err)
	}
	// Flip one payload byte: the checksum must catch it.
	img[pageHeaderSize+2] ^= 0xFF
	if _, err := ParsePage(img); err == nil {
		t.Fatal("corrupted page accepted")
	}
	// Corrupt the checksum itself.
	img[pageHeaderSize+2] ^= 0xFF // restore payload
	img[checksumOffset] ^= 0x01
	if _, err := ParsePage(img); err == nil {
		t.Fatal("bad checksum accepted")
	}
}

// TestChecksumQuick: any single bit flip outside the checksum field of a
// valid page (random lists on a dense vertex-ID run) is detected, and the
// same page with its vertices drawn at random instead — checksum intact —
// is rejected unless the draw happens to be a dense run.
func TestChecksumQuick(t *testing.T) {
	f := func(seed int64, flip uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		first := graph.VertexID(rng.Intn(1000))
		write := func(vertex func(i int) graph.VertexID) ([]byte, bool) {
			w := NewPageWriter(512, PageID(rng.Intn(100)))
			dense := true
			for i := 0; i < 5; i++ {
				adj := make([]graph.VertexID, rng.Intn(10))
				for j := range adj {
					adj[j] = graph.VertexID(rng.Intn(1000))
				}
				v := vertex(i)
				if !w.Add(v, adj, false, false) {
					break
				}
				dense = dense && v == vertex(0)+graph.VertexID(i)
			}
			return append([]byte(nil), w.Bytes()...), dense
		}
		img, _ := write(func(i int) graph.VertexID { return first + graph.VertexID(i) })
		if _, err := ParsePage(img); err != nil {
			return false
		}
		// Any single bit flip outside the checksum field must be detected.
		pos := int(flip) % len(img)
		if pos >= checksumOffset && pos < checksumOffset+4 {
			pos = checksumOffset + 4
		}
		img[pos] ^= 0x40
		if _, err := ParsePage(img); err == nil {
			return false
		}
		drawn := make([]graph.VertexID, 5)
		for i := range drawn {
			drawn[i] = graph.VertexID(rng.Intn(1000))
		}
		img, dense := write(func(i int) graph.VertexID { return drawn[i] })
		if dense {
			_, err := ParsePage(img)
			return err == nil
		}
		return rejectedByEveryParse(t, img)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// checkIndex fails t unless p's slot index agrees with the records lazy
// parsed from the same image (ParsePageLazy, which builds no index): the
// slots are the records' dense vertex-ID run from First, each vertex's slot
// is its record's and the IDs beside the run have none; every slot resolves
// exactly its record's decoded list, capped at its end; its split is the
// index of the first neighbour above the record's vertex (where the list
// ascends without holding that vertex, as every built list does); its chunk
// bits are the record's flags, and its chunk mark — the "not held" answer —
// is set exactly on a chunk of a multi-page vertex; and Compressed counts the
// records with a compressed payload and their bytes.
func checkIndex(t *testing.T, p, lazy *Page) {
	t.Helper()
	if p.ID != lazy.ID || p.Slots() != len(lazy.Records) {
		t.Fatalf("page %d with %d slots, lazily page %d with %d records", p.ID, p.Slots(), lazy.ID, len(lazy.Records))
	}
	recs, bytes := 0, 0
	for i := range lazy.Records {
		rec := &lazy.Records[i]
		want := rec.Adj
		if rec.CompBytes > 0 {
			want = rec.Comp.AppendTo(nil)
			recs++
			bytes += rec.CompBytes
		}
		if s, ok := p.Slot(rec.Vertex); !ok || s != i || p.First()+graph.VertexID(i) != rec.Vertex {
			t.Fatalf("page %d: vertex %d resolves to slot %d (%v), want %d", p.ID, rec.Vertex, s, ok, i)
		}
		adj, split, chunk := p.List(i)
		if !slices.Equal(adj, want) || cap(adj) != len(adj) {
			t.Fatalf("page %d slot %d: index resolves %v (cap %d), record holds %v", p.ID, i, adj, cap(adj), want)
		}
		if c, cn := p.Chunk(i); chunk != (rec.Continues || rec.Continuation) || c != rec.Continues || cn != rec.Continuation {
			t.Fatalf("page %d slot %d: chunk mark %v (bits %v, %v) on a record continues=%v continuation=%v",
				p.ID, i, chunk, c, cn, rec.Continues, rec.Continuation)
		}
		if slices.IsSorted(adj) && !slices.Contains(adj, rec.Vertex) {
			if above, _ := slices.BinarySearch(adj, rec.Vertex); split != above {
				t.Fatalf("page %d slot %d: split %d, first neighbour above vertex %d at %d of %v",
					p.ID, i, split, rec.Vertex, above, adj)
			}
		}
	}
	if r, b := p.Compressed(); r != recs || b != bytes {
		t.Fatalf("page %d counts %d compressed records of %d bytes, the records %d of %d", p.ID, r, b, recs, bytes)
	}
	if p.Slots() == 0 {
		return
	}
	first := p.First()
	if _, ok := p.Slot(first + graph.VertexID(p.Slots())); ok {
		t.Fatalf("page %d: the vertex past its run has a slot", p.ID)
	}
	if _, ok := p.Slot(first - 1); ok && first > 0 {
		t.Fatalf("page %d: the vertex before its run has a slot", p.ID)
	}
}

// TestPageIndexBuilds checks the slot index of every page of a plain and a
// compressed build in which hubs span several pages, as the file's readers
// parse it (ParsePageInto, into one page reused for the whole file), against
// the lazy parse of the same image: the builder writes dense vertex-ID runs,
// so every vertex resolves to its own slot, and every chunk is marked.
func TestPageIndexBuilds(t *testing.T) {
	for _, compress := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "index.db")
		if _, err := BuildFromGraph(path, gen.PlantedHubs(600, 4, 400, 38), BuildOptions{PageSize: 256, Compress: compress, TempDir: dir}); err != nil {
			t.Fatal(err)
		}
		db, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		chunks := 0
		buf, p := make([]byte, db.PageSize()), &Page{}
		for pid := 0; pid < db.NumPages(); pid++ {
			if err := db.ReadPageInto(PageID(pid), buf); err != nil {
				t.Fatal(err)
			}
			if err := ParsePageInto(p, buf); err != nil {
				t.Fatalf("compress=%v page %d: %v", compress, pid, err)
			}
			lazy, err := ParsePageLazy(buf)
			if err != nil {
				t.Fatal(err)
			}
			checkIndex(t, p, lazy)
			for i := 0; i < p.Slots(); i++ {
				if _, _, chunk := p.List(i); chunk {
					chunks++
				}
			}
		}
		db.Close()
		if chunks == 0 {
			t.Fatalf("compress=%v: no multi-page vertex in the build", compress)
		}
	}
}
