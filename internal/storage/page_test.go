package storage

import (
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
	if got := p.Vertices(); !reflect.DeepEqual(got, []graph.VertexID{1, 2, 3}) {
		t.Fatalf("Vertices = %v", got)
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

func TestPageRoundTripQuick(t *testing.T) {
	f := func(vs []uint16, adjLen uint8) bool {
		w := NewPageWriter(4096, 3)
		var want []Record
		for i, raw := range vs {
			if i >= 8 {
				break
			}
			adj := make([]graph.VertexID, int(adjLen)%20)
			for j := range adj {
				adj[j] = graph.VertexID(uint32(raw) + uint32(j))
			}
			if !w.Add(graph.VertexID(raw), adj, i%2 == 0, i%3 == 0) {
				return false
			}
			want = append(want, Record{Vertex: graph.VertexID(raw), Adj: adj, Continues: i%2 == 0, Continuation: i%3 == 0})
		}
		p, err := ParsePage(w.Bytes())
		if err != nil {
			return false
		}
		if len(p.Records) != len(want) {
			return false
		}
		for i := range want {
			g, w := p.Records[i], want[i]
			if g.Vertex != w.Vertex || g.Continues != w.Continues || g.Continuation != w.Continuation {
				return false
			}
			if len(g.Adj) != len(w.Adj) {
				return false
			}
			for j := range g.Adj {
				if g.Adj[j] != w.Adj[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
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

func TestChecksumQuick(t *testing.T) {
	f := func(seed int64, flip uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		w := NewPageWriter(512, PageID(rng.Intn(100)))
		for i := 0; i < 5; i++ {
			adj := make([]graph.VertexID, rng.Intn(10))
			for j := range adj {
				adj[j] = graph.VertexID(rng.Intn(1000))
			}
			if !w.Add(graph.VertexID(rng.Intn(1000)), adj, false, false) {
				break
			}
		}
		img := append([]byte(nil), w.Bytes()...)
		if _, err := ParsePage(img); err != nil {
			return false
		}
		// Any single bit flip outside the checksum field must be detected.
		pos := int(flip) % len(img)
		if pos >= checksumOffset && pos < checksumOffset+4 {
			pos = checksumOffset + 4
		}
		img[pos] ^= 0x40
		_, err := ParsePage(img)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// checkIndex fails t unless p's slot index agrees with its records: every
// slot resolves to exactly its record's list, aliasing the same slab and
// capped at its end; its split is the index of the first neighbour above
// the record's vertex (where the list ascends without holding that vertex,
// as every built list does); its chunk mark — the "not held" answer — is
// set exactly on a chunk of a multi-page vertex; and, where the records are
// a dense vertex-ID run, each vertex's slot is its record's and the IDs
// beside the run have none. It reports whether the run is dense.
func checkIndex(t *testing.T, p *Page) bool {
	t.Helper()
	if p.Slots() != len(p.Records) {
		t.Fatalf("page %d: %d slots for %d records", p.ID, p.Slots(), len(p.Records))
	}
	dense := true
	for i := range p.Records {
		rec := &p.Records[i]
		adj, split, chunk := p.List(i)
		if !slices.Equal(adj, rec.Adj) || cap(adj) != len(adj) || (len(adj) > 0 && &adj[0] != &rec.Adj[0]) {
			t.Fatalf("page %d slot %d: index resolves %v (cap %d), record holds %v", p.ID, i, adj, cap(adj), rec.Adj)
		}
		if c, cn := p.Chunk(i); chunk != (rec.Continues || rec.Continuation) || c != rec.Continues || cn != rec.Continuation {
			t.Fatalf("page %d slot %d: chunk mark %v (bits %v, %v) on a record continues=%v continuation=%v",
				p.ID, i, chunk, c, cn, rec.Continues, rec.Continuation)
		}
		if slices.IsSorted(adj) && !slices.Contains(adj, rec.Vertex) {
			above := 0
			for above < len(adj) && adj[above] < rec.Vertex {
				above++
			}
			if split != above {
				t.Fatalf("page %d slot %d: split %d, first neighbour above vertex %d at %d of %v",
					p.ID, i, split, rec.Vertex, above, adj)
			}
		}
		dense = dense && rec.Vertex == p.Records[0].Vertex+graph.VertexID(i)
	}
	if !dense || len(p.Records) == 0 {
		return dense
	}
	for i := range p.Records {
		if s, ok := p.Slot(p.Records[i].Vertex); !ok || s != i {
			t.Fatalf("page %d: vertex %d resolves to slot %d (%v), want %d", p.ID, p.Records[i].Vertex, s, ok, i)
		}
	}
	first := p.First()
	if _, ok := p.Slot(first + graph.VertexID(len(p.Records))); ok {
		t.Fatalf("page %d: the vertex past its run has a slot", p.ID)
	}
	if _, ok := p.Slot(first - 1); ok && first > 0 {
		t.Fatalf("page %d: the vertex before its run has a slot", p.ID)
	}
	return true
}

// TestPageIndexBuilds checks the slot index of every page of a plain and a
// compressed build in which hubs span several pages, as parsed (ParsePage)
// and as rebuilt from the same records (NewPage, the constructor of
// hand-built pages): the builder writes dense vertex-ID runs, so every
// vertex resolves to its own slot, and every chunk is marked.
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
		for pid := 0; pid < db.NumPages(); pid++ {
			p, err := db.ReadPage(PageID(pid))
			if err != nil {
				t.Fatal(err)
			}
			if !checkIndex(t, p) {
				t.Fatalf("compress=%v page %d: records are not a dense vertex-ID run", compress, pid)
			}
			recs := slices.Clone(p.Records)
			for i := range recs {
				recs[i].Adj = slices.Clone(recs[i].Adj)
				if recs[i].Continues || recs[i].Continuation {
					chunks++
				}
			}
			checkIndex(t, NewPage(p.ID, recs))
		}
		db.Close()
		if chunks == 0 {
			t.Fatalf("compress=%v: no multi-page vertex in the build", compress)
		}
	}
}
