package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"dualsim/internal/delta"
	"dualsim/internal/gen"
	"dualsim/internal/graph"
	"dualsim/internal/oracletest"
)

// The storage oracle. A database file depends only on its graph and its
// build options, and every reader of it — a page cursor over the page-first
// array and the slot index, the three parses, LoadGraph, VerifyPages, Stats,
// MaxSpan and Compact — must return that graph, or what follows from it.
// Each seed draws a graph, a build, a base file (a fresh build, a compaction
// that folds a drawn overlay, or a v2 fixture) and optionally one corruption,
// and holds every reader to the in-memory graph: on an intact file each must
// return the fault-free result, on a damaged one it must reject the damage,
// naming the page, or return exactly that result.

// Corruptions of a draw's file. The first three damage page p (the file's
// content, not its directory): every reader that reads p must reject it as a
// permanent *CorruptPageError naming p for the damage's reason.
const (
	bitflip   = "bitflip"   // one bit flipped on p and, drawn, on a second page
	misdirect = "misdirect" // page q's valid image written over p
	renamed   = "renamed"   // p's records renamed, checksum rewritten: not a dense run, or not the run the array says
	truncated = "truncated" // the file cut short: Open refuses it
	firsts    = "firsts"    // a page-first entry (a v2 vertex-directory span) Open must refuse
	edges     = "edges"     // the superblock's edge count off by one: the entry total fails on the last page
)

// faults stripes the corruptions over the seed: every run of eight seeds
// draws each kind once and two intact files.
var faults = []string{"", bitflip, misdirect, renamed, "", truncated, firsts, edges}

// The v2 fixtures under testdata/ were written by the v2 builder from
// v2Graph at 256-byte pages, plain and compressed.
var v2Fixtures = []string{"testdata/v2-plain.db", "testdata/v2-compressed.db"}

func v2Graph() *graph.Graph { return gen.PlantedHubs(600, 6, 90, 42) }

// draw is one configuration of the oracle.
type draw struct {
	seed    int64
	kind    string // how g was generated
	g       *graph.Graph
	opt     BuildOptions
	base    string // "build", "compact" or a v2 fixture
	batches int    // compact: overlay batches folded into the file
	fault   string // "" or one of the corruptions
	// identity holds the intact file to its bytes: a rebuild of its graph
	// and a compaction without an overlay write them again. The fault-free
	// seeds do, and the pinned draws that pin the writer: each writes two
	// more synced files.
	identity bool
}

func (d draw) String() string {
	return fmt.Sprintf("seed=%d graph=%s(n=%d m=%d) page=%d compress=%v skipReorder=%v append=%.2f runSize=%d base=%s batches=%d fault=%q",
		d.seed, d.kind, d.g.NumVertices(), d.g.NumEdges(), d.opt.PageSize, d.opt.Compress, d.opt.SkipReorder,
		d.opt.AppendFraction, d.opt.RunSize, d.base, d.batches, d.fault)
}

// v2 reports whether the draw's file is a v2 fixture.
func (d draw) v2() bool { return strings.HasPrefix(d.base, "testdata/") }

// drawConfig draws seed's configuration.
func drawConfig(seed int64) draw {
	rng := rand.New(rand.NewSource(seed))
	d := draw{seed: seed, base: "build", fault: faults[seed%int64(len(faults))]}
	d.identity = d.fault == ""
	n := 20 + rng.Intn(300)
	switch rng.Intn(4) {
	case 0:
		d.kind, d.g = "random", gen.ErdosRenyi(n, n*(1+rng.Intn(4)), rng.Int63())
	case 1:
		d.kind, d.g = "hubs", gen.PlantedHubs(n, 1+rng.Intn(4), 20+rng.Intn(250), rng.Int63())
	case 2:
		d.kind, d.g = "bipartite", gen.Bipartite(n/2, n-n/2, n*(1+rng.Intn(3)), rng.Int63())
	default:
		d.kind, d.g = "chunglu", gen.ChungLu(n, n*(1+rng.Intn(4)), 2.1+rng.Float64(), rng.Int63())
	}
	if rng.Intn(3) == 0 { // isolated vertices at the top of the ID range
		d.g = graph.MustNewGraph(n+1+rng.Intn(20), d.g.EdgeList())
	}
	d.opt = BuildOptions{PageSize: []int{64, 128, 128, 256, 256, 512, 1024, 4096}[rng.Intn(8)], Compress: rng.Intn(2) == 0}
	switch rng.Intn(4) {
	case 0:
		d.opt.SkipReorder = true
	case 1:
		d.opt.AppendFraction = 0.05 + 0.3*rng.Float64()
	}
	if rng.Intn(3) == 0 {
		d.opt.RunSize = 64 + rng.Intn(512) // a multi-run external sort
	}
	switch rng.Intn(6) {
	case 0, 1:
		d.base, d.batches = "compact", rng.Intn(8)
	case 2:
		d.base = v2Fixtures[rng.Intn(2)]
		d.kind, d.g, d.opt = "v2", v2Graph(), BuildOptions{PageSize: 256, Compress: d.base == v2Fixtures[1]}
	}
	return d
}

// fileGraph is g as a build under opt lays it out: relabeled by degree, ties
// by ID — only the lowest 1 − AppendFraction of the IDs, the rest appended in
// place — unless SkipReorder keeps the IDs.
func fileGraph(g *graph.Graph, opt BuildOptions) *graph.Graph {
	order := make([]graph.VertexID, g.NumVertices()) // order[new] = old
	for i := range order {
		order[i] = graph.VertexID(i)
	}
	if !opt.SkipReorder {
		sorted := len(order)
		if f := opt.AppendFraction; f > 0 && f < 1 {
			sorted = int(float64(sorted) * (1 - f))
		}
		slices.SortStableFunc(order[:sorted], func(a, b graph.VertexID) int { return g.Degree(a) - g.Degree(b) })
	}
	perm := make([]graph.VertexID, len(order))
	for nu, old := range order {
		perm[old] = graph.VertexID(nu)
	}
	rg, _ := g.Relabel(perm) // perm has an entry per vertex
	return rg
}

// fold applies batches of drawn inserts and deletes (of edges there or
// not) to a delta store over g, and returns its snapshot and the graph the
// overlay makes of g.
func fold(t *testing.T, rng *rand.Rand, g *graph.Graph, batches int) (*delta.Snapshot, *graph.Graph) {
	n := g.NumVertices()
	st := delta.NewStore(n, 0)
	for b := 0; b < batches && n > 1; b++ {
		ops := make([]delta.Op, 1+rng.Intn(6))
		for i := range ops {
			u := graph.VertexID(rng.Intn(n))
			ops[i] = delta.Op{Insert: rng.Intn(2) == 0, U: u, V: graph.VertexID((int(u) + 1 + rng.Intn(n-1)) % n)}
		}
		if _, err := st.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	snap, edges := st.Snapshot(), [][2]graph.VertexID{}
	for v := range graph.VertexID(n) {
		for _, w := range snap.Apply(v, g.Adj(v)) {
			edges = append(edges, [2]graph.VertexID{v, w})
		}
	}
	return snap, graph.MustNewGraph(n, edges)
}

// oracle is one draw's file and what its graph says every reader returns.
type oracle struct {
	t     *testing.T
	d     draw
	cov   *oracletest.Coverage
	rng   *rand.Rand   // the file's overlay and damage
	want  *graph.Graph // the graph the file holds
	epoch uint64
	image []byte // the intact file's bytes
	// written is what a writer makes of the file: its bytes, but a v4
	// image of a v2 fixture.
	written []byte
	fault   string // the damage of the file being read: "" until the draw's corruption is applied
	damage  string // the corruption as applied
	bad     []PageID
	reason  string // what the rejection of a damaged page says
}

func (o *oracle) fatalf(format string, args ...any) {
	o.t.Helper()
	o.t.Fatalf("%v %s:\n  "+format, append([]any{o.d, o.damage}, args...)...)
}

// build writes g under opt to a fresh file ending in name, and holds the
// build's statistics to want.
func (o *oracle) build(name string, g, want *graph.Graph, opt BuildOptions) string {
	o.t.Helper()
	path := scratch(o.t, name)
	opt.TempDir = scratchDir
	st, err := BuildFromGraph(path, g, opt)
	if err != nil {
		o.fatalf("build: %v", err)
	}
	if st.NumVertices != want.NumVertices() || st.NumEdges != uint64(want.NumEdges()) || st.MaxDegree != want.MaxDegree() {
		o.fatalf("build stats %+v for %d vertices, %d edges, maximum degree %d", *st, want.NumVertices(), want.NumEdges(), want.MaxDegree())
	}
	if st.SortRuns >= 2 {
		o.cov.Add("sort runs>=2")
	}
	return path
}

// check writes d's file, damages it as drawn, and holds every reader to the
// graph, counting what it reached into cov.
func check(t *testing.T, d draw, cov *oracletest.Coverage) {
	t.Helper()
	o := &oracle{t: t, d: d, cov: cov, rng: rand.New(rand.NewSource(^d.seed))}
	o.want = fileGraph(d.g, d.opt)
	path := d.base // a v2 fixture, read in place: the damage goes to a copy
	switch d.base {
	case "build":
		path = o.build("base.db", d.g, o.want, d.opt)
	case "compact":
		if o.want.Degree(0) == 0 { // the base's encoding is read off an empty record
			cov.Add("compact: empty first record")
		}
		pre, err := Open(o.build("pre.db", d.g, o.want, d.opt))
		if err != nil {
			o.fatalf("open: %v", err)
		}
		snap, folded := fold(t, o.rng, o.want, d.batches)
		o.want, o.epoch, path = folded, snap.Epoch(), scratch(t, "base.db")
		// The folded file keeps the base's encoding, whatever opt asks for.
		_, err = Compact(path, pre, snap.Apply, snap.Epoch(), BuildOptions{Compress: !d.opt.Compress})
		pre.Close()
		if err != nil {
			o.fatalf("compact: %v", err)
		}
	}
	reorder := "full"
	if d.opt.SkipReorder {
		reorder = "skip"
	}
	if d.opt.AppendFraction > 0 {
		reorder = "append"
	}
	for _, k := range []string{"graph:" + d.kind, fmt.Sprintf("compress=%v", d.opt.Compress), "base:" + d.base,
		fmt.Sprintf("page=%d", d.opt.PageSize), "reorder:" + reorder} {
		cov.Add(k)
	}
	if n := o.want.NumVertices(); o.want.Degree(graph.VertexID(n-1)) == 0 {
		cov.Add("isolated tail")
	}
	o.image = o.read(path)
	o.written = o.image
	o.open(path)
	if d.fault != "" {
		o.fault = d.fault
		o.open(o.corrupt()) // a damaged copy, never synced
	}
}

func (o *oracle) read(path string) []byte {
	o.t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		o.t.Fatal(err)
	}
	return b
}

// open opens the file at path and holds its readers to the graph, or
// requires Open to refuse it when the draw damaged the file's directory.
func (o *oracle) open(path string) {
	o.t.Helper()
	db, err := Open(path)
	switch {
	case o.fault == truncated || o.fault == firsts:
		if err == nil {
			db.Close()
			o.fatalf("Open accepted the file")
		}
	case err != nil:
		o.fatalf("open: %v", err)
	default:
		defer db.Close()
		o.readers(db)
	}
	o.cov.Add("fault:" + o.fault)
}

// corrupt writes a copy of the file damaged as o.fault says, records what
// it damaged, and returns the copy's path.
func (o *oracle) corrupt() string {
	rng := o.rng
	img := slices.Clone(o.image)
	ps := int(binary.LittleEndian.Uint32(img[8:]))
	n, np := int(binary.LittleEndian.Uint32(img[12:])), int(binary.LittleEndian.Uint32(img[24:]))
	dir := int(binary.LittleEndian.Uint64(img[32:]))
	page := func(p int) []byte { return img[ps*(p+1) : ps*(p+2)] }
	p := rng.Intn(np)
	o.bad = []PageID{PageID(p)}
	switch o.fault {
	case bitflip:
		o.reason = "checksum mismatch"
		// Any bit, in the 4-byte page ID in half the draws: a mismatch names
		// the page read, whichever page the damaged header claims.
		flip := func(p int) {
			at := rng.Intn(ps)
			if rng.Intn(2) == 0 {
				at = rng.Intn(4)
				o.cov.Add("bitflip:page ID")
			}
			page(p)[at] ^= 1 << rng.Intn(8)
		}
		flip(p)
		if q := rng.Intn(np); q != p && rng.Intn(2) == 0 {
			flip(q)
			o.bad = []PageID{PageID(min(p, q)), PageID(max(p, q))}
			o.cov.Add("bitflip:2 pages")
		}
	case misdirect:
		q := (p + 1 + rng.Intn(max(np-1, 1))) % np
		copy(page(p), page(q))
		o.reason = "claims ID"
		if q == p { // a one-page file: the image of a page that is not there
			binary.LittleEndian.PutUint32(page(p), uint32(np))
			rewriteChecksum(page(p))
		}
	case renamed: // slots i.. renamed k up: from slot 0 a dense run, but not the array's
		pg, k := page(p), 1+rng.Intn(3)
		nrec := int(binary.LittleEndian.Uint16(pg[4:]))
		o.reason = "the page array says"
		i := rng.Intn(2) * rng.Intn(nrec) // slot 0 in half the draws at least
		if i > 0 {
			o.reason = "not a dense vertex-ID run"
		}
		for ; i < nrec; i++ {
			off, _ := slotRecord(pg, i)
			binary.LittleEndian.PutUint32(pg[off:], binary.LittleEndian.Uint32(pg[off:])+uint32(k))
		}
		rewriteChecksum(pg)
		o.cov.Add("reason:" + o.reason)
	case truncated:
		img = img[:rng.Intn(len(img))]
	case firsts:
		o.bad = nil
		if o.d.v2() { // a vertex's span in the v2 directory
			binary.LittleEndian.PutUint32(img[dir+12*rng.Intn(n)+4:], 0)
			break
		}
		// Page 0 a continuation, or a page repeating the one before it
		// without the continuation bit (below it if that one has it).
		at, e := dir+4*p, uint32(contBit)
		if p > 0 {
			e = binary.LittleEndian.Uint32(img[at-4:]) &^ contBit
			o.cov.Add("firsts:repeat")
		}
		binary.LittleEndian.PutUint32(img[at:], e)
	case edges:
		binary.LittleEndian.PutUint64(img[16:], binary.LittleEndian.Uint64(img[16:])^1)
		o.bad, o.reason = []PageID{PageID(np - 1)}, "the lists hold"
	}
	o.damage = fmt.Sprintf("(damaged pages %v, %d of %d bytes)", o.bad, len(img), len(o.image))
	path := scratch(o.t, "damaged.db")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		o.t.Fatal(err)
	}
	return path
}

// pageDamage reports whether the draw damaged a page's content.
func (o *oracle) pageDamage() bool {
	return o.fault == bitflip || o.fault == misdirect || o.fault == renamed
}

// named requires err to be a permanent corruption of page pid, for the
// damage's reason.
func (o *oracle) named(reader string, err error, pid PageID) {
	o.t.Helper()
	if ce, ok := IsCorrupt(err); !ok || IsTransient(err) || ce.Page != pid || !strings.Contains(ce.Reason, o.reason) {
		o.fatalf("%s: %v; want a permanent corruption of page %d (%s)", reader, err, pid, o.reason)
	}
}

// outcome holds a reader's result to the draw: on an intact file it must
// return the fault-free result (same); on a damaged one it may instead
// reject, and a damaged page must be rejected as named says.
func (o *oracle) outcome(reader string, err error, same bool) {
	o.t.Helper()
	switch {
	case err == nil && same:
	case err == nil:
		o.fatalf("%s returned another value", reader)
	case o.fault == "":
		o.fatalf("%s: %v", reader, err)
	case o.pageDamage():
		o.named(reader, err, o.bad[0])
	}
}

// readers holds every reader of db to o.want.
func (o *oracle) readers(db *DB) {
	want := o.want
	ps, np, n := db.PageSize(), db.NumPages(), db.NumVertices()
	if n != want.NumVertices() || ps != o.d.opt.PageSize || db.Epoch() != o.epoch ||
		(db.NumEdges() != uint64(want.NumEdges())) != (o.fault == edges) {
		o.fatalf("superblock: %d vertices, %d edges, %d-byte pages, epoch %d", n, db.NumEdges(), ps, db.Epoch())
	}
	buf := make([]byte, ps)
	var ioe *IOError
	if err := db.ReadPageInto(PageID(np), buf); !errors.As(err, &ioe) || ioe.Transient || ioe.Page != PageID(np) ||
		db.ReadPageInto(0, buf[1:]) == nil {
		o.fatalf("a read past the file: %v; want a permanent I/O error naming page %d, and a short buffer refused", err, np)
	}

	pages := make([]*Page, np)
	for pid := range pages {
		pages[pid] = o.page(db, PageID(pid), buf)
	}

	// Every vertex's list, its pages located by a cursor and its chunks
	// joined, and the statistics that follow from the lists and their spans.
	stats := FileStats{Pages: np, PageSize: ps}
	if !o.d.opt.Compress {
		stats.AdjBytes = 8 * int64(want.NumEdges())
	}
	cur, maxSpan, prev := db.PageFirsts().Cursor(), 0, PageID(0)
	for v := graph.VertexID(0); int(v) < n; v++ {
		first, last := cur.Span(v)
		if f, l := db.SpanOf(v); f != first || l != last || first < prev || last < first {
			o.fatalf("vertex %d: cursor [%d,%d], SpanOf [%d,%d], the vertex before starts on page %d", v, first, last, f, l, prev)
		}
		prev, maxSpan = first, max(maxSpan, int(last-first)+1)
		stats.Records += int(last-first) + 1
		if last > first {
			stats.SplitVertices++
		}
		if o.d.opt.Compress && want.Degree(v) > 0 {
			stats.CompressedRecs += int(last-first) + 1
		}
		var list []graph.VertexID
		split, lost := 0, false
		for pid := first; pid <= last; pid++ {
			pg := pages[pid]
			if lost = pg == nil; lost {
				break
			}
			i, ok := pg.Slot(v)
			if !ok {
				o.fatalf("page %d of vertex %d's span [%d,%d] holds no record of it", pid, v, first, last)
			}
			chunk, s, isChunk := pg.List(i)
			if continues, continuation := pg.Chunk(i); isChunk != (last > first) || continues != (pid < last) || continuation != (pid > first) {
				o.fatalf("vertex %d on page %d of [%d,%d]: chunk %v, continues %v, continuation %v", v, pid, first, last, isChunk, continues, continuation)
			}
			list, split = append(list, chunk...), split+s
			if o.d.opt.Compress {
				enc, skips := graph.AppendCompressed(nil, chunk)
				if skips && o.d.v2() { // skip tables came with v3
					enc = enc[2+6*((len(chunk)-1)/graph.SkipInterval):]
				} else if skips {
					o.cov.Add("skip table")
				}
				stats.AdjBytes += int64(len(enc))
			} else if len(chunk) == MaxEntriesPerPage(ps) {
				o.cov.Add("full page")
			}
		}
		above, _ := slices.BinarySearch(want.Adj(v), v)
		if !lost && (!slices.Equal(list, want.Adj(v)) || split != above) {
			o.fatalf("vertex %d: list %v split %d, the graph's %v split %d", v, list, split, want.Adj(v), above)
		}
		if want.Degree(v) == 0 {
			o.cov.Add("empty record")
		}
	}
	if maxSpan >= 3 {
		o.cov.Add("span>=3")
	}
	if got := db.PageFirsts().MaxSpan(); got != maxSpan {
		o.fatalf("MaxSpan %d, the longest span %d", got, maxSpan)
	}
	used := stats.AdjBytes + int64((recordHeaderSize+slotSize)*stats.Records)
	stats.FillFactor = float64(used) / float64(int64(np)*int64(ps-pageHeaderSize))

	g, err := db.LoadGraph()
	o.outcome("LoadGraph", err, err == nil && slices.Equal(g.EdgeList(), want.EdgeList()) && g.NumVertices() == n)
	st, err := db.Stats()
	o.outcome("Stats", err, err == nil && *st == stats)
	rep := db.VerifyPages()
	var named []PageID
	for _, ce := range rep.Corrupt {
		o.named("VerifyPages", ce, ce.Page)
		named = append(named, ce.Page)
	}
	if rep.PagesScanned != np || len(rep.IOErrors) > 0 || !slices.Equal(named, o.bad) {
		o.fatalf("VerifyPages scanned %d of %d pages, unreadable %v, corrupt %v; want corrupt %v", rep.PagesScanned, np, rep.IOErrors, named, o.bad)
	}
	if err := db.VerifyIntegrity(); len(o.bad) > 0 {
		o.named("VerifyIntegrity", err, o.bad[0])
	} else if err != nil {
		o.fatalf("VerifyIntegrity: %v", err)
	}

	// A file is a function of its graph and options: a rebuild of the loaded
	// graph in its IDs writes the same bytes (stamped with the file's epoch),
	// and so does a compaction without an overlay, reading each page once.
	if o.fault == "" && !o.d.identity {
		return
	}
	if o.fault == "" {
		img := o.read(o.build("rebuilt.db", g, want, BuildOptions{PageSize: ps, Compress: o.d.opt.Compress, SkipReorder: true}))
		binary.LittleEndian.PutUint64(img[epochOffset:], db.Epoch())
		if o.d.v2() {
			o.written = img
		} else if !bytes.Equal(img, o.image) {
			o.fatalf("a rebuild of the loaded graph writes other bytes (%d, the file %d)", len(img), len(o.image))
		}
	}
	reads := make([]int, np)
	walk := &baseWalk{db: db, read: func(pid PageID, b []byte) error { reads[pid]++; return db.ReadPageInto(pid, b) }}
	out := scratch(o.t, "compacted.db")
	keep := func(_ graph.VertexID, base []graph.VertexID) []graph.VertexID { return base }
	_, err = compact(out, walk, keep, db.Epoch())
	o.outcome("Compact", err, err == nil && bytes.Equal(o.read(out), o.written) && slices.Max(reads) == 1 && slices.Min(reads) == 1)
}

// page reads page pid as DB.load does (the parse, told which page it reads,
// then the page-first array) and returns it, nil when the draw damaged it
// and the read rejects the damage. Its image must pass the three parses
// alike, and so must the image changed under a rewritten checksum: at a
// drawn record byte, however they rule; each compressed record cut one byte
// short, and the page's first skip table (which repeats what the stream
// says) changed at each of its bytes, rejected by all three.
func (o *oracle) page(db *DB, pid PageID, buf []byte) *Page {
	o.t.Helper()
	pg := pageFor(len(buf))
	err := db.load(db.ReadPageInto, pid, buf, pg)
	parsersAgree(o.t, buf)
	if o.pageDamage() && slices.Contains(o.bad, pid) {
		o.named(fmt.Sprintf("the read of page %d", pid), err, pid)
		return nil
	} else if err != nil {
		o.fatalf("the read of page %d: %v", pid, err)
	}
	accepted := func(change func(img []byte)) bool {
		img := slices.Clone(buf)
		change(img)
		rewriteChecksum(img)
		return parsersAgree(o.t, img) != nil
	}
	at := pageHeaderSize + o.rng.Intn(int(binary.LittleEndian.Uint16(buf[6:]))-pageHeaderSize)
	o.cov.Add(fmt.Sprintf("tamper accepted=%v", accepted(func(img []byte) { img[at] ^= byte(1 + o.rng.Intn(255)) })))
	swept := false
	for i := range pg.Slots() {
		off, length := slotRecord(buf, i)
		if buf[off+4]&flagCompressed == 0 || length == recordHeaderSize {
			continue
		}
		if accepted(func(img []byte) { binary.LittleEndian.PutUint16(img[len(img)-(i+1)*slotSize+2:], uint16(length-1)) }) {
			o.fatalf("page %d: slot %d's compressed record cut one byte short parses", pid, i)
		}
		o.cov.Add("truncated record")
		if buf[off+4]&flagSkips == 0 || swept {
			continue
		}
		swept = true
		table := off + recordHeaderSize
		for b := range 2 + 6*int(binary.LittleEndian.Uint16(buf[table:])) {
			if accepted(func(img []byte) { img[table+b] ^= 0x10 }) {
				o.fatalf("page %d: slot %d's skip table changed at byte %d parses", pid, i, b)
			}
		}
		o.cov.Add("tampered skip table")
	}
	return pg
}

// parsersAgree parses img with ParsePage, ParsePageLazy and ParsePageInto
// (into a page that held another image), and fails t unless all three accept
// or all three reject it, and, when they accept, the slot index is the lazy
// parse's records decoded — each vertex's slot, list (capped at its end),
// forward split and chunk bits, and the compressed totals — and ParsePage's
// records are the lazy ones, their lists aliasing its slab, the lazy views
// the tails of their records in img. It returns ParsePageInto's page, nil
// when rejected.
func parsersAgree(t *testing.T, img []byte) *Page {
	t.Helper()
	eager, eerr := ParsePage(img)
	lazy, lerr := ParsePageLazy(img)
	into := &Page{}
	w := NewPageWriter(MinPageSize, 9)
	w.Add(1, []graph.VertexID{0, 2}, false, false)
	if err := ParsePageInto(into, w.Bytes(), 9); err != nil {
		t.Fatalf("ParsePageInto of a valid page: %v", err)
	}
	ierr := ParsePageInto(into, img, InvalidPage)
	if (eerr == nil) != (lerr == nil) || (lerr == nil) != (ierr == nil) {
		t.Fatalf("ParsePage: %v, ParsePageLazy: %v, ParsePageInto: %v; one parse accepts what another rejects", eerr, lerr, ierr)
	}
	if ierr != nil {
		return nil
	}
	if into.ID != lazy.ID || into.Slots() != len(lazy.Records) || into.Records != nil || len(eager.Records) != len(lazy.Records) {
		t.Fatalf("page %d of %d slots (records %v), lazily page %d of %d records", into.ID, into.Slots(), into.Records != nil, lazy.ID, len(lazy.Records))
	}
	recs, bytes := 0, 0
	for i, rec := range lazy.Records {
		want := rec.Adj
		if rec.CompBytes > 0 {
			want = rec.Comp.AppendTo(nil)
			recs, bytes = recs+1, bytes+rec.CompBytes
			if off, length := slotRecord(img, i); &rec.Comp.Data[0] != &img[off+length-len(rec.Comp.Data)] {
				t.Fatalf("page %d slot %d: the lazy view is not its record's tail in the image", lazy.ID, i)
			}
		}
		list, split, chunk := into.List(i)
		continues, continuation := into.Chunk(i)
		s, ok := into.Slot(rec.Vertex)
		above, _ := slices.BinarySearch(list, rec.Vertex)
		if !ok || s != i || !slices.Equal(list, want) || cap(list) != len(list) || continues != rec.Continues ||
			continuation != rec.Continuation || chunk != (continues || continuation) ||
			slices.IsSorted(list) && !slices.Contains(list, rec.Vertex) && split != above {
			t.Fatalf("page %d slot %d (vertex %d, slot %d %v): list %v split %d chunk %v (%v, %v); record %+v decoding to %v",
				into.ID, i, rec.Vertex, s, ok, list, split, chunk, continues, continuation, rec, want)
		}
		e, slab := eager.Records[i], eager.slab[eager.index[2*i]:]
		if e.Vertex != rec.Vertex || e.CompBytes != rec.CompBytes || e.Comp.Data != nil || e.Continues != rec.Continues ||
			e.Continuation != rec.Continuation || !slices.Equal(e.Adj, want) || len(want) > 0 && &e.Adj[0] != &slab[0] {
			t.Fatalf("slot %d: ParsePage's record %+v, the lazy one %+v", i, e, rec)
		}
	}
	if r, b := into.Compressed(); r != recs || b != bytes {
		t.Fatalf("page %d counts %d compressed records of %d bytes, the records %d of %d", into.ID, r, b, recs, bytes)
	}
	if _, ok := into.Slot(into.First() + graph.VertexID(into.Slots())); ok || into.First() > 0 && func() bool { _, ok := into.Slot(into.First() - 1); return ok }() {
		t.Fatalf("page %d: a vertex beside its run has a slot", into.ID)
	}
	return into
}

// rewriteChecksum recomputes a page image's CRC after a test changed its
// content, so that only the structural checks stand between it and a reader.
func rewriteChecksum(buf []byte) {
	binary.LittleEndian.PutUint32(buf[checksumOffset:], 0)
	binary.LittleEndian.PutUint32(buf[checksumOffset:], pageChecksum(buf))
}

// scratchDir is the one directory the package's tests write files in, made
// and removed by TestMain; scratch names a fresh file there, which the test
// removes when it ends. Removing a synced file, or a directory that holds
// one, is slow on a file system mounted with online discard — tens of
// milliseconds each — so tests share the directory, and a soak's time box
// pays for the files it writes as it goes.
var scratchDir string

var scratchSeq atomic.Int64

func scratch(tb testing.TB, name string) string {
	path := filepath.Join(scratchDir, fmt.Sprintf("%d-%s", scratchSeq.Add(1), name))
	tb.Cleanup(func() { os.Remove(path) })
	return path
}

func TestMain(m *testing.M) {
	var err error
	if scratchDir, err = os.MkdirTemp("", "dualsim-storage-test-"); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(scratchDir)
	os.Exit(code)
}

// oracleSeeds is the tier-1 seed set: 1..oracleSeeds. With SOAK_SECONDS
// set, fresh seeds run until the time box closes.
const oracleSeeds = 32

// TestStorageOracle is the storage oracle (see the top of this file). Each
// seed draws a graph (random, planted hubs, bipartite or Chung-Lu, with or
// without an isolated tail), a build (64- to 4096-byte pages, plain or
// compressed, degree-reordered, kept or partly appended, in one sort run or
// several), a base file (a fresh build, a compaction folding a drawn
// overlay, or a v2 fixture) and, striped over the seeds, one corruption. A
// failing seed prints its draw; reproduce it with
//
//	go test ./internal/storage -run 'TestStorageOracle/seed=N$'
func TestStorageOracle(t *testing.T) {
	cov := &oracletest.Coverage{}
	if !oracletest.Run(t, oracletest.Seeds(oracleSeeds), func(t *testing.T, s int64) { check(t, drawConfig(s), cov) }) {
		return
	}
	t.Logf("coverage over %d seeds: %v", oracleSeeds, cov)
	cov.Require(t, "graph:random", "graph:hubs", "graph:bipartite", "graph:chunglu", "graph:v2", "isolated tail",
		"compress=true", "compress=false", "page=64", "page=4096", "reorder:full", "reorder:skip", "reorder:append",
		"sort runs>=2", "base:build", "base:compact", "base:"+v2Fixtures[0], "base:"+v2Fixtures[1],
		"fault:", "fault:"+bitflip, "fault:"+misdirect, "fault:"+renamed, "fault:"+truncated, "fault:"+firsts, "fault:"+edges,
		"bitflip:2 pages", "bitflip:page ID", "reason:not a dense vertex-ID run", "reason:the page array says", "firsts:repeat",
		"span>=3", "empty record", "full page", "skip table", "tamper accepted=true", "tamper accepted=false",
		"truncated record", "tampered skip table", "compact: empty first record")
}
