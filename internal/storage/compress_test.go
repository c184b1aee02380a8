package storage

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

func TestDeltaRoundTrip(t *testing.T) {
	cases := [][]graph.VertexID{
		nil,
		{0},
		{5},
		{1, 2, 3},
		{0, 1000000, 1000001},
		{7, 7 + 127, 7 + 127 + 128, 1 << 30},
	}
	for _, adj := range cases {
		enc, withSkips := graph.AppendCompressed(nil, adj)
		c, err := graph.ParseCompressed(enc, len(adj), withSkips)
		if err != nil {
			t.Fatalf("%v: %v", adj, err)
		}
		dec := c.AppendTo(nil)
		if len(dec) != len(adj) {
			t.Fatalf("%v: decoded %v", adj, dec)
		}
		for i := range adj {
			if dec[i] != adj[i] {
				t.Fatalf("%v: decoded %v", adj, dec)
			}
		}
	}
}

func TestDeltaQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		// Sorted unique list, as adjacency lists are.
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		adj := make([]graph.VertexID, 0, len(raw))
		for i, x := range raw {
			if i == 0 || graph.VertexID(x) != adj[len(adj)-1] {
				adj = append(adj, graph.VertexID(x))
			}
		}
		enc, withSkips := graph.AppendCompressed(nil, adj)
		c, err := graph.ParseCompressed(enc, len(adj), withSkips)
		if err != nil {
			return false
		}
		dec := c.AppendTo(nil)
		for i := range adj {
			if dec[i] != adj[i] {
				return false
			}
		}
		// Varint encoding of 32-bit deltas is at most 5 bytes/entry and the
		// skip table adds ~6/SkipInterval per entry plus a 2-byte header;
		// dense lists (the realistic case) compress well below 4 — asserted
		// by TestCompressedBuildCrossValidates via the page-count check.
		return len(enc) <= 6*len(adj)+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDeltaCorrupt(t *testing.T) {
	if _, err := graph.ParseCompressed([]byte{0x80}, 1, false); err == nil {
		t.Error("truncated varint accepted")
	}
	if _, err := graph.ParseCompressed([]byte{1, 1}, 1, false); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestMaxDeltaEntries(t *testing.T) {
	adj := []graph.VertexID{1, 2, 3, 300, 301}
	n, bytes := graph.MaxCompressedEntries(adj, 3)
	if n != 3 || bytes != 3 {
		t.Fatalf("n=%d bytes=%d, want 3,3", n, bytes)
	}
	n, _ = graph.MaxCompressedEntries(adj, 1000)
	if n != len(adj) {
		t.Fatalf("full list should fit: n=%d", n)
	}
	n, bytes = graph.MaxCompressedEntries(adj, 0)
	if n != 0 || bytes != 0 {
		t.Fatalf("zero budget: n=%d bytes=%d", n, bytes)
	}
}

func TestAddCompressedRoundTrip(t *testing.T) {
	w := NewPageWriter(256, 9)
	adj := []graph.VertexID{3, 4, 9, 1000}
	if !w.AddCompressed(5, adj, true, false) {
		t.Fatal("AddCompressed failed")
	}
	if !w.Add(6, []graph.VertexID{7}, false, false) {
		t.Fatal("mixed-encoding Add failed")
	}
	p, err := ParsePage(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Records) != 2 {
		t.Fatalf("records = %d", len(p.Records))
	}
	r := p.Records[0]
	if r.Vertex != 5 || !r.Continues || len(r.Adj) != 4 || r.Adj[3] != 1000 {
		t.Fatalf("compressed record = %+v", r)
	}
	if p.Records[1].Adj[0] != 7 {
		t.Fatalf("plain record = %+v", p.Records[1])
	}
}

func TestCompressedBuildCrossValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := randomTestGraph(rng, 200, 1200)
	dir := t.TempDir()

	plain := filepath.Join(dir, "plain.db")
	comp := filepath.Join(dir, "comp.db")
	sp, err := BuildFromGraph(plain, g, BuildOptions{PageSize: 256, TempDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildFromGraph(comp, g, BuildOptions{PageSize: 256, TempDir: dir, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumPages >= sp.NumPages {
		t.Errorf("compression did not shrink: %d pages vs %d plain", sc.NumPages, sp.NumPages)
	}
	dbc, err := Open(comp)
	if err != nil {
		t.Fatal(err)
	}
	defer dbc.Close()
	if err := dbc.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Adjacency equality against the plain database.
	dbp, err := Open(plain)
	if err != nil {
		t.Fatal(err)
	}
	defer dbp.Close()
	for v := 0; v < dbp.NumVertices(); v++ {
		a, err := adjacencyOf(dbp, graph.VertexID(v))
		if err != nil {
			t.Fatal(err)
		}
		b, err := adjacencyOf(dbc, graph.VertexID(v))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("vertex %d: %v vs %v", v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: %v vs %v", v, a, b)
			}
		}
	}
}

func TestCompressedHubSpansPages(t *testing.T) {
	var edges [][2]graph.VertexID
	for i := 1; i <= 300; i++ {
		edges = append(edges, [2]graph.VertexID{0, graph.VertexID(i)})
	}
	g := graph.MustNewGraph(301, edges)
	dir := t.TempDir()
	path := filepath.Join(dir, "hub.db")
	if _, err := BuildFromGraph(path, g, BuildOptions{PageSize: 64, TempDir: dir, Compress: true}); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	hub := graph.VertexID(300)
	adj, err := adjacencyOf(db, hub)
	if err != nil {
		t.Fatal(err)
	}
	if len(adj) != 300 {
		t.Fatalf("hub adjacency %d entries", len(adj))
	}
	if first, last := db.SpanOf(hub); last <= first {
		t.Fatal("hub should span multiple pages")
	}
}

// rewriteChecksum recomputes a page image's CRC after a test mutated its
// content, so parsing exercises the structural validators rather than the
// checksum.
func rewriteChecksum(buf []byte) {
	binary.LittleEndian.PutUint32(buf[checksumOffset:], 0)
	binary.LittleEndian.PutUint32(buf[checksumOffset:], pageChecksum(buf))
}

// longTestAdj returns an ascending list long enough to carry a skip table.
func longTestAdj(n int) []graph.VertexID {
	adj := make([]graph.VertexID, n)
	for i := range adj {
		adj[i] = graph.VertexID(3*i + 1)
	}
	return adj
}

func TestAddCompressedSkipRecordRoundTrip(t *testing.T) {
	adj := longTestAdj(200)
	w := NewPageWriter(4096, 3)
	if !w.AddCompressed(9, adj, false, false) {
		t.Fatal("AddCompressed failed")
	}
	buf := w.Bytes()
	if buf[pageHeaderSize+4]&flagSkips == 0 {
		t.Fatal("long compressed record has no skip table flag")
	}
	eager, err := ParsePage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if r := &eager.Records[0]; r.CompBytes == 0 || !slices.Equal(r.Adj, adj) {
		t.Fatalf("eager: compBytes=%d, decoded %d of %d entries", r.CompBytes, len(r.Adj), len(adj))
	}
	lazy, err := ParsePageLazy(buf)
	if err != nil {
		t.Fatal(err)
	}
	r := &lazy.Records[0]
	if r.Adj != nil || r.CompBytes == 0 || r.Comp.Count != len(adj) || !slices.Equal(r.Comp.AppendTo(nil), adj) {
		t.Fatalf("lazy: decoded %v, compBytes=%d, view of %d entries decoding to the list: %v",
			r.Adj != nil, r.CompBytes, r.Comp.Count, slices.Equal(r.Comp.AppendTo(nil), adj))
	}
	// The view must alias the page image (zero-copy).
	if len(r.Comp.Data) == 0 || &r.Comp.Data[0] != &buf[pageHeaderSize+recordHeaderSize+2+6*((len(adj)-1)/graph.SkipInterval)] {
		t.Fatal("lazy view does not alias the page buffer")
	}
}

// TestCorruptSkipTableRejected flips skip-table bytes (with a fixed-up
// checksum, so only structural validation can catch it) and requires a
// *CorruptPageError from both parse modes.
func TestCorruptSkipTableRejected(t *testing.T) {
	adj := longTestAdj(150)
	w := NewPageWriter(2048, 7)
	if !w.AddCompressed(4, adj, false, false) {
		t.Fatal("AddCompressed failed")
	}
	pristine := append([]byte(nil), w.Bytes()...)
	// Mutate, in turn: the skip count, a skip value, a skip offset.
	for _, off := range []int{pageHeaderSize + recordHeaderSize, pageHeaderSize + recordHeaderSize + 3, pageHeaderSize + recordHeaderSize + 6} {
		buf := append([]byte(nil), pristine...)
		buf[off] ^= 0x5a
		rewriteChecksum(buf)
		for _, parse := range []func([]byte) (*Page, error){ParsePage, ParsePageLazy} {
			_, err := parse(buf)
			var ce *CorruptPageError
			if !errors.As(err, &ce) {
				t.Fatalf("offset %d: got %v, want *CorruptPageError", off, err)
			}
		}
	}
	// Sanity: the pristine image still parses.
	if _, err := ParsePage(pristine); err != nil {
		t.Fatal(err)
	}
}

// mixedPage writes a page of ascending vertices whose records are drawn at
// random: raw or compressed, from empty to long enough for a skip table, with
// small and large gaps, until the page is full. It returns the image and the
// lists written.
func mixedPage(rng *rand.Rand, pageSize int) ([]byte, [][]graph.VertexID) {
	w := NewPageWriter(pageSize, PageID(rng.Intn(100)))
	var lists [][]graph.VertexID
	for v := graph.VertexID(rng.Intn(50)); ; v++ {
		adj := make([]graph.VertexID, rng.Intn(3*graph.SkipInterval))
		next := uint32(rng.Intn(1000))
		for i := range adj {
			adj[i] = graph.VertexID(next)
			next += 1 + uint32(rng.Intn(1+rng.Intn(70000)))
		}
		var ok bool
		if rng.Intn(3) == 0 {
			ok = w.Add(v, adj, false, false)
		} else {
			ok = w.AddCompressed(v, adj, false, false)
		}
		if !ok {
			return append([]byte(nil), w.Bytes()...), lists
		}
		lists = append(lists, adj)
	}
}

// parsersAgree parses buf with ParsePage, with ParsePageLazy and with
// ParsePageInto into a page that already holds another image, and fails t
// unless all three accept or all three reject it, and, when they accept,
// both indexes agree with the lazy parse's records (checkIndex) and
// ParsePage's Records are the lazy ones decoded, each list aliasing its
// slot's. It returns ParsePage's page (nil when rejected).
func parsersAgree(t *testing.T, buf []byte) *Page {
	t.Helper()
	eager, eerr := ParsePage(buf)
	lazy, lerr := ParsePageLazy(buf)
	w := NewPageWriter(MinPageSize, 9)
	w.Add(1, []graph.VertexID{0, 2}, false, false)
	w.Add(2, []graph.VertexID{1}, false, false)
	into := &Page{}
	if err := ParsePageInto(into, w.Bytes(), 9); err != nil {
		t.Fatalf("ParsePageInto of a valid page: %v", err)
	}
	ierr := ParsePageInto(into, buf, InvalidPage)
	if (eerr == nil) != (lerr == nil) || (eerr == nil) != (ierr == nil) {
		t.Fatalf("ParsePage err=%v, ParsePageLazy err=%v, ParsePageInto err=%v: one parse accepts what another rejects", eerr, lerr, ierr)
	}
	if eerr != nil {
		return nil
	}
	checkIndex(t, into, lazy)
	checkIndex(t, eager, lazy)
	if into.Records != nil || len(eager.Records) != len(lazy.Records) {
		t.Fatalf("ParsePageInto built records (%v); ParsePage %d records, ParsePageLazy %d", into.Records != nil, len(eager.Records), len(lazy.Records))
	}
	for i := range eager.Records {
		e, l := &eager.Records[i], &lazy.Records[i]
		if e.Comp.Count != 0 || e.Comp.Data != nil {
			t.Fatalf("slot %d: ParsePage kept a compressed view", i)
		}
		if e.Vertex != l.Vertex || e.CompBytes != l.CompBytes || e.Continues != l.Continues || e.Continuation != l.Continuation {
			t.Fatalf("slot %d: eager %+v, lazy %+v", i, *e, *l)
		}
		if adj, _, _ := eager.List(i); !slices.Equal(e.Adj, adj) || (len(adj) > 0 && &e.Adj[0] != &adj[0]) {
			t.Fatalf("slot %d: record holds %v, its slot resolves %v", i, e.Adj, adj)
		}
	}
	return eager
}

// TestParsePageFusedMatchesLazy: decoding a compressed record inside its
// validating walk changes nothing a reader sees. On random mixed pages, with
// and without skip tables, ParsePage returns exactly what ParsePageLazy plus
// Record.Decoded does; on the same pages with a byte flipped, a record
// truncated or a skip entry tampered with (checksum fixed up, so only the
// structural checks stand between the page and a reader), the two accept and
// reject the same images, and every truncated or tampered one is rejected.
func TestParsePageFusedMatchesLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	skipped := 0
	for trial := 0; trial < 40; trial++ {
		pristine, lists := mixedPage(rng, []int{512, 4096}[trial%2])
		p := parsersAgree(t, pristine)
		if p == nil || len(p.Records) != len(lists) {
			t.Fatalf("trial %d: pristine page rejected or short", trial)
		}
		for i, rec := range p.Records {
			if !slices.Equal(rec.Adj, lists[i]) {
				t.Fatalf("trial %d slot %d: decoded %v, wrote %v", trial, i, rec.Adj, lists[i])
			}
		}
		tamper := func(name string, mustReject bool, mut func(buf []byte)) {
			t.Helper()
			buf := append([]byte(nil), pristine...)
			mut(buf)
			rewriteChecksum(buf)
			if parsersAgree(t, buf) != nil && mustReject {
				t.Fatalf("trial %d: %s accepted", trial, name)
			}
		}
		free := int(binary.LittleEndian.Uint16(pristine[6:]))
		for k := 0; k < 64; k++ {
			off := pageHeaderSize + rng.Intn(free-pageHeaderSize)
			tamper("byte flip", false, func(buf []byte) { buf[off] ^= byte(1 + rng.Intn(255)) })
		}
		for i := range lists {
			slot := len(pristine) - (i+1)*slotSize
			off := int(binary.LittleEndian.Uint16(pristine[slot:]))
			flags := pristine[off+4]
			if flags&flagCompressed == 0 || len(lists[i]) == 0 {
				continue
			}
			tamper("truncated record", true, func(buf []byte) {
				binary.LittleEndian.PutUint16(buf[slot+2:], binary.LittleEndian.Uint16(buf[slot+2:])-1)
			})
			if flags&flagSkips == 0 {
				continue
			}
			skipped++
			table := off + recordHeaderSize
			entries := int(binary.LittleEndian.Uint16(pristine[table:]))
			for b := 0; b < 2+entries*6; b++ {
				tamper("skip entry", true, func(buf []byte) { buf[table+b] ^= 0x10 })
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no record carried a skip table")
	}
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

// TestCrossReadV2 is the format-version compatibility gate: databases
// written by the v2 binary (committed under testdata/, built from
// gen.PlantedHubs(600, 6, 90, 42) at page size 256) must stay readable
// and bit-identical to a fresh v3 build of the same graph.
func TestCrossReadV2(t *testing.T) {
	g := gen.PlantedHubs(600, 6, 90, 42)
	dir := t.TempDir()
	for _, tc := range []struct {
		fixture  string
		compress bool
	}{
		{"testdata/v2-plain.db", false},
		{"testdata/v2-compressed.db", true},
	} {
		old, err := Open(tc.fixture)
		if err != nil {
			t.Fatalf("%s: %v", tc.fixture, err)
		}
		defer old.Close()
		if err := old.VerifyIntegrity(); err != nil {
			t.Fatalf("%s: %v", tc.fixture, err)
		}
		fresh := filepath.Join(dir, filepath.Base(tc.fixture))
		if _, err := BuildFromGraph(fresh, g, BuildOptions{PageSize: 256, TempDir: dir, Compress: tc.compress}); err != nil {
			t.Fatal(err)
		}
		nu, err := Open(fresh)
		if err != nil {
			t.Fatal(err)
		}
		defer nu.Close()
		if old.NumVertices() != nu.NumVertices() || old.NumEdges() != nu.NumEdges() {
			t.Fatalf("%s: shape mismatch (%d/%d vertices, %d/%d edges)",
				tc.fixture, old.NumVertices(), nu.NumVertices(), old.NumEdges(), nu.NumEdges())
		}
		for v := 0; v < old.NumVertices(); v++ {
			a, err := adjacencyOf(old, graph.VertexID(v))
			if err != nil {
				t.Fatalf("%s: vertex %d: %v", tc.fixture, v, err)
			}
			b, err := adjacencyOf(nu, graph.VertexID(v))
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("%s: vertex %d: %d vs %d entries", tc.fixture, v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: vertex %d entry %d: %d vs %d", tc.fixture, v, i, a[i], b[i])
				}
			}
		}
	}
}
