package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"dualsim/internal/graph"
)

const (
	dbMagic = 0x42445344 // "DSDB" little endian
	// dbVersion is the format version Build writes. v2 added CRC-32 page
	// checksums; v3 added skip tables to compressed records (flagSkips),
	// which records self-describe; v4 replaced the 12-byte vertex directory
	// with the page-first array (PageFirsts). Open reads v2 and v3 files too
	// (minReadableVersion), converting their directory into the array as it
	// streams it in. See docs/STORAGE.md for the compatibility rules.
	dbVersion          = 4
	minReadableVersion = 2
)

// epochOffset is the byte offset of the data-epoch field within the
// superblock page. The field is additive: files written before it exist
// carry zeros there (the superblock page is zero-padded to the page size),
// which reads back as epoch 0 — exactly right for a never-mutated file.
const epochOffset = 40

// superblockSize is the number of superblock bytes actually written at
// the head of the file; the rest of the first page frame is zero padding.
// MinPageSize keeps every page size at least this large.
const superblockSize = epochOffset + 8

// superblock is the fixed header stored in the first page of the file.
type superblock struct {
	pageSize    uint32
	numVertices uint32
	numEdges    uint64
	numPages    uint32
	maxDegree   uint32
	dirOffset   uint64
	epoch       uint64
	version     uint32
}

func (sb *superblock) writeTo(f *os.File) error {
	var buf [48]byte
	binary.LittleEndian.PutUint32(buf[0:], dbMagic)
	binary.LittleEndian.PutUint32(buf[4:], dbVersion)
	binary.LittleEndian.PutUint32(buf[8:], sb.pageSize)
	binary.LittleEndian.PutUint32(buf[12:], sb.numVertices)
	binary.LittleEndian.PutUint64(buf[16:], sb.numEdges)
	binary.LittleEndian.PutUint32(buf[24:], sb.numPages)
	binary.LittleEndian.PutUint32(buf[28:], sb.maxDegree)
	binary.LittleEndian.PutUint64(buf[32:], sb.dirOffset)
	binary.LittleEndian.PutUint64(buf[epochOffset:], sb.epoch)
	_, err := f.WriteAt(buf[:], 0)
	return err
}

func readSuperblock(f *os.File) (*superblock, error) {
	var buf [48]byte
	if _, err := f.ReadAt(buf[:], 0); err != nil {
		return nil, fmt.Errorf("storage: read superblock: %w", err)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != dbMagic {
		return nil, fmt.Errorf("storage: bad magic (not a dualsim database)")
	}
	v := binary.LittleEndian.Uint32(buf[4:])
	if v < minReadableVersion || v > dbVersion {
		return nil, fmt.Errorf("storage: unsupported version %d (readable: %d..%d)", v, minReadableVersion, dbVersion)
	}
	return &superblock{
		version:     v,
		pageSize:    binary.LittleEndian.Uint32(buf[8:]),
		numVertices: binary.LittleEndian.Uint32(buf[12:]),
		numEdges:    binary.LittleEndian.Uint64(buf[16:]),
		numPages:    binary.LittleEndian.Uint32(buf[24:]),
		maxDegree:   binary.LittleEndian.Uint32(buf[28:]),
		dirOffset:   binary.LittleEndian.Uint64(buf[32:]),
		epoch:       binary.LittleEndian.Uint64(buf[epochOffset:]),
	}, nil
}

// StampEpoch persists a data epoch into the superblock of the database at
// path. The epoch is the live-ingest version counter: the serving layer
// stamps it after every applied mutation batch so a restarted server
// resumes the sequence instead of reusing old epoch numbers (which would
// revalidate stale resume tokens and cached plans). The 8-byte in-place
// write is crash-safe in the sense that either the old or new epoch is
// read back; both are safe because epochs only guard staleness.
func StampEpoch(path string, epoch uint64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("storage: stamp epoch: %w", err)
	}
	defer f.Close()
	if _, err := readSuperblock(f); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], epoch)
	if _, err := f.WriteAt(buf[:], epochOffset); err != nil {
		return fmt.Errorf("storage: stamp epoch: %w", err)
	}
	return f.Sync()
}

// DB is a read-only handle to a built database. It is safe for concurrent
// use: page reads use positional I/O.
type DB struct {
	f     *os.File
	sb    superblock
	pages PageFirsts
}

// PageFirsts is the page-first array, the database's directory: one entry
// per page, its key — the page's first vertex times two, plus one when that
// record continues the previous page's list (a hub's chunk). Pages hold
// ascending dense vertex runs (Lemma 1: P(v) is monotone in v), so keys never
// decrease and one per page locates every list: v's starts on the last page
// whose key is at most 2v — the page that begins with v, not as a
// continuation, when there is one — and ends on the last page whose key is at
// most 2v+1. On disk an entry is the vertex with contBit for the
// continuation.
type PageFirsts []uint32

// contBit marks a page-first entry on disk whose page begins with a
// continuation chunk. Build refuses 2^31 or more vertices, so no vertex ID
// reaches it.
const contBit = 1 << 31

// First returns the first vertex of page pid and whether its record
// continues the previous page's list.
func (f PageFirsts) First(pid PageID) (graph.VertexID, bool) {
	return graph.VertexID(f[pid] >> 1), f[pid]&1 != 0
}

// upper returns the first page at or after p whose key exceeds k, len(f)
// when none does: a gallop from p, then a binary search of its last stride.
func (f PageFirsts) upper(p int, k uint32) int {
	step := 1
	for ; p+step <= len(f) && f[p+step-1] <= k; step *= 2 {
		p += step
	}
	return p + sort.Search(min(step, len(f)-p), func(i int) bool { return f[p+i] > k })
}

// MaxSpan returns the pages of the longest adjacency list: one more than the
// longest run of one vertex's continuation entries.
func (f PageFirsts) MaxSpan() int {
	span := 1
	for p := 0; p < len(f); p++ {
		if f[p]&1 != 0 {
			q := f.upper(p, f[p]) // the run ends where the key grows
			span, p = max(span, q-p+1), q-1
		}
	}
	return span
}

// PageCursor locates the lists of ascending vertices: it walks the array in
// step with them, in amortized O(1) per vertex where they are dense and a
// gallop where they skip pages. A vertex below the last one asked for
// restarts it from page 0.
type PageCursor struct {
	f       PageFirsts
	p, last int            // the span of the last vertex asked for
	lo, hi  graph.VertexID // the vertices whose list lies on page p alone: [lo, hi)
}

// Cursor returns a cursor at page 0.
func (f PageFirsts) Cursor() PageCursor { return PageCursor{f: f} }

// Span returns the first and last page of v's list. A list that starts and
// ends on the cursor's page costs two comparisons.
func (c *PageCursor) Span(v graph.VertexID) (first, last PageID) {
	if v < c.lo || v >= c.hi {
		c.seek(v)
	}
	return PageID(c.p), PageID(c.last)
}

// seek moves the cursor onto v's list: its first page is the last whose key
// is at most 2v, its last page the last whose key is at most 2v+1.
func (c *PageCursor) seek(v graph.VertexID) {
	k := 2 * uint32(v)
	if c.f[c.p] > k {
		c.p = 0
	}
	c.p = c.f.upper(c.p+1, k) - 1
	c.last = c.f.upper(c.p+1, k+1) - 1
	// Page p alone holds the lists from its first vertex on (past it when
	// that is a continuation) to before the next page's first vertex, which
	// may continue there — none after a list that spans pages.
	c.lo, c.hi = graph.VertexID(c.f[c.p]+1)/2, math.MaxUint32
	if c.last > c.p {
		c.hi = 0
	} else if c.p+1 < len(c.f) {
		c.hi = graph.VertexID(c.f[c.p+1] / 2)
	}
}

// check holds the array to what Build writes and the superblock says: an
// entry per page; page 0 begins with vertex 0, not a continuation; entries
// never decrease and repeat only as a hub's continuation pages; every vertex
// is below the vertex count, and the vertices from the last page's first one
// on fit in that page.
func (f PageFirsts) check(sb *superblock) error {
	n := sb.numVertices
	for p := range f {
		v, cont := f.First(PageID(p))
		if p == 0 && (v != 0 || cont) || p > 0 && (f[p] < f[p-1] || f[p] == f[p-1] && !cont) || uint32(v) >= n {
			return fmt.Errorf("storage: corrupt page array: page %d begins with vertex %d (continuation %t) in a file of %d vertices", p, v, cont, n)
		}
	}
	if len(f) == 0 || len(f) != int(sb.numPages) {
		return fmt.Errorf("storage: corrupt directory: %d of %d pages begun", len(f), sb.numPages)
	}
	if last, _ := f.First(PageID(len(f) - 1)); int(n-uint32(last)) > (int(sb.pageSize)-pageHeaderSize)/(recordHeaderSize+slotSize) {
		return fmt.Errorf("storage: corrupt superblock: %d vertices, but the last page begins with vertex %d", n, last)
	}
	return nil
}

// Open opens a database file built with Build. It checks the superblock and
// the page-first array before trusting them: the page size within
// [MinPageSize, MaxPageSize], the pages and the directory inside the file
// (before allocating it), and the array as PageFirsts.check states. A v2 or
// v3 file's 12-byte vertex directory is converted into the array in the same
// streamed read.
func Open(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open db: %w", err)
	}
	db, err := open(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return db, nil
}

func open(f *os.File) (*DB, error) {
	sb, err := readSuperblock(f)
	if err != nil {
		return nil, err
	}
	if sb.pageSize < MinPageSize || sb.pageSize > MaxPageSize {
		return nil, fmt.Errorf("storage: corrupt page size %d (supported: %d..%d)", sb.pageSize, MinPageSize, MaxPageSize)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: open db: %w", err)
	}
	entry, n := uint64(4), uint64(sb.numPages) // the page-first array
	if sb.version < 4 {
		entry, n = 12, uint64(sb.numVertices) // a vertex directory
	}
	size := uint64(fi.Size())
	if uint64(sb.pageSize)*(uint64(sb.numPages)+1) > size || sb.dirOffset > size || entry*n > size-sb.dirOffset {
		return nil, fmt.Errorf("storage: %d pages of %d bytes and a directory of %d entries at offset %d overrun the %d-byte file",
			sb.numPages, sb.pageSize, n, sb.dirOffset, size)
	}
	r := bufio.NewReader(io.NewSectionReader(f, int64(sb.dirOffset), int64(entry*n)))
	pages := make(PageFirsts, 0, sb.numPages)
	var rec [12]byte
	for i := uint32(0); uint64(i) < n; i++ {
		if _, err := io.ReadFull(r, rec[:entry]); err != nil {
			return nil, fmt.Errorf("storage: read directory: %w", err)
		}
		if e := binary.LittleEndian.Uint32(rec[:]); entry == 4 {
			pages = append(pages, e<<1|e>>31) // the key: the vertex doubled, the continuation bit in
			continue
		}
		// Vertex i's entry (first page, span, degree): i begins every page of
		// its span that no vertex before it began, as a continuation past the
		// first.
		first, span := binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:])
		if span == 0 || uint64(first)+uint64(span) > uint64(sb.numPages) || first > uint32(len(pages)) {
			return nil, fmt.Errorf("storage: corrupt directory entry for vertex %d: span %d from page %d, %d pages begun, in a file of %d pages",
				i, span, first, len(pages), sb.numPages)
		}
		for p := max(first, uint32(len(pages))); p < first+span; p++ {
			pages = append(pages, i<<1|min(p-first, 1))
		}
	}
	if err := pages.check(sb); err != nil {
		return nil, err
	}
	return &DB{f: f, sb: *sb, pages: pages}, nil
}

// Close releases the underlying file.
func (db *DB) Close() error { return db.f.Close() }

// Path returns the path of the underlying database file.
func (db *DB) Path() string { return db.f.Name() }

// PageSize returns the page size in bytes.
func (db *DB) PageSize() int { return int(db.sb.pageSize) }

// NumVertices returns the vertex count.
func (db *DB) NumVertices() int { return int(db.sb.numVertices) }

// NumEdges returns the undirected edge count.
func (db *DB) NumEdges() uint64 { return db.sb.numEdges }

// NumPages returns the number of data pages.
func (db *DB) NumPages() int { return int(db.sb.numPages) }

// Epoch returns the data epoch stamped into the superblock: 0 for a file
// that has never taken a mutation, otherwise the epoch of the last batch
// persisted via StampEpoch (or preserved by Compact).
func (db *DB) Epoch() uint64 { return db.sb.epoch }

// PageFirsts returns the page-first array, shared and read-only.
func (db *DB) PageFirsts() PageFirsts { return db.pages }

// SpanOf returns the first and last page of v's list, in O(log pages).
func (db *DB) SpanOf(v graph.VertexID) (first, last PageID) {
	c := db.pages.Cursor()
	return c.Span(v)
}

// ReadPageInto reads the raw image of page pid into buf, which must be
// PageSize() bytes. It uses positional I/O and is safe for concurrent use.
func (db *DB) ReadPageInto(pid PageID, buf []byte) error {
	if int(pid) >= db.NumPages() {
		return &IOError{Page: pid, Op: "read", Err: fmt.Errorf("page out of range [0,%d)", db.NumPages())}
	}
	if len(buf) != db.PageSize() {
		return fmt.Errorf("storage: buffer %d bytes, want %d", len(buf), db.PageSize())
	}
	off := int64(db.sb.pageSize) * (int64(pid) + 1)
	if _, err := db.f.ReadAt(buf, off); err != nil {
		return &IOError{Page: pid, Op: "read", Err: err, Transient: transientSyscall(err)}
	}
	return nil
}

// ReadPagesInto reads the raw images of len(buf)/PageSize() consecutive
// pages starting at first into buf with a single positional read — the
// device-level half of the buffer pool's sequential run coalescing: one
// request (and on spinning media one seek) covers the whole run. buf must
// be a positive multiple of PageSize() bytes and the run must lie inside
// [0, NumPages()). Safe for concurrent use.
func (db *DB) ReadPagesInto(first PageID, buf []byte) error {
	ps := db.PageSize()
	if len(buf) == 0 || len(buf)%ps != 0 {
		return fmt.Errorf("storage: run buffer %d bytes, want a positive multiple of %d", len(buf), ps)
	}
	n := len(buf) / ps
	if int(first)+n > db.NumPages() {
		return &IOError{Page: first, Op: "read", Err: fmt.Errorf("run [%d,%d) out of range [0,%d)", first, int(first)+n, db.NumPages())}
	}
	off := int64(db.sb.pageSize) * (int64(first) + 1)
	if _, err := db.f.ReadAt(buf, off); err != nil {
		return &IOError{Page: first, Op: "read", Err: err, Transient: transientSyscall(err)}
	}
	return nil
}

// load reads page pid into buf with read and parses it into p, which
// checks the page's ID, then holds its first record to the page-first array.
func (db *DB) load(read func(PageID, []byte) error, pid PageID, buf []byte, p *Page) error {
	if err := read(pid, buf); err != nil {
		return err
	}
	if err := ParsePageInto(p, buf, pid); err != nil {
		return err
	}
	v, cont := db.pages.First(pid)
	if c := p.Slots() > 0 && p.index[1]&metaContinuation != 0; p.Slots() == 0 || p.First() != v || c != cont {
		return &CorruptPageError{Page: pid, Reason: fmt.Sprintf("page begins with vertex %d (continuation %t, %d records), the page array says %d (continuation %t)",
			p.First(), c, p.Slots(), v, cont)}
	}
	return nil
}

// scan reads and parses every page in order (load), each into one buffer and
// one page allocated once for the whole scan, and hands visit the page, its
// raw image and the read, parse or page-array error; the page holds nothing
// usable when err is set. The scan stops at the first error visit returns.
func (db *DB) scan(visit func(pid PageID, p *Page, buf []byte, err error) error) error {
	buf, p := make([]byte, db.PageSize()), pageFor(db.PageSize())
	for pid := PageID(0); int(pid) < db.NumPages(); pid++ {
		if err := visit(pid, p, buf, db.load(db.ReadPageInto, pid, buf, p)); err != nil {
			return err
		}
	}
	return nil
}

// LoadGraph reads the whole database into an in-memory graph. Used by tests
// and the in-memory baselines.
func (db *DB) LoadGraph() (*graph.Graph, error) {
	var edges [][2]graph.VertexID
	err := db.scan(func(_ PageID, p *Page, _ []byte, err error) error {
		if err != nil {
			return err
		}
		for i := 0; i < p.Slots(); i++ {
			v := p.First() + graph.VertexID(i)
			list, _, _ := p.List(i)
			for _, w := range list {
				if v < w {
					edges = append(edges, [2]graph.VertexID{v, w})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return graph.NewGraph(db.NumVertices(), edges)
}

// VerifyIntegrity checks the whole database as VerifyPages does and returns
// its most significant failure (VerifyReport.Err), or nil.
func (db *DB) VerifyIntegrity() error { return db.VerifyPages().Err() }

// VerifyReport summarizes a page-level database scan: how many pages were
// read and which failed, split by failure family so tools can distinguish
// corruption (bad content) from I/O trouble (unreadable device).
type VerifyReport struct {
	// PagesScanned is the number of pages the scan attempted.
	PagesScanned int
	// Corrupt lists every page whose content failed validation, by page.
	Corrupt []*CorruptPageError
	// IOErrors lists every page that could not be read at all.
	IOErrors []*IOError
}

// Err returns the scan's most significant failure: the first corruption if
// any, else the first I/O error, else nil.
func (r *VerifyReport) Err() error {
	if len(r.Corrupt) > 0 {
		return r.Corrupt[0]
	}
	if len(r.IOErrors) > 0 {
		return r.IOErrors[0]
	}
	return nil
}

// VerifyPages reads every page once and checks it: it must be readable,
// parse (ParsePageInto: checksum, its own ID, framing, a dense vertex-ID
// run) and begin as the page-first array says (load), and agree with the
// pages before it — vertices ascend across pages, and stay below the file's
// vertex count — and all lists together must hold 2 × NumEdges entries.
// Every page that cannot be read or parsed is reported, so a corrupt page
// does not hide later ones. The cross-page checks stop at the first failure
// of any kind (after it they would only echo it) and report theirs as a
// CorruptPageError naming the page they found it on, the last page for the
// entry total.
func (db *DB) VerifyPages() *VerifyReport {
	rep := &VerifyReport{}
	var entries uint64
	prev, whole := graph.VertexID(0), true // whole: no failure yet, the cross-page checks stand
	corrupt := func(pid PageID, format string, args ...any) *CorruptPageError {
		return &CorruptPageError{Page: pid, Reason: fmt.Sprintf(format, args...)}
	}
	db.scan(func(pid PageID, p *Page, _ []byte, err error) error {
		rep.PagesScanned++
		for i := 0; err == nil && whole && i < p.Slots(); i++ {
			v := p.First() + graph.VertexID(i)
			switch {
			case int(v) >= db.NumVertices():
				err = corrupt(pid, "vertex %d outside the file's %d vertices", v, db.NumVertices())
			case v < prev:
				err = corrupt(pid, "vertex order violated (%d after %d)", v, prev)
			default:
				list, _, _ := p.List(i)
				entries += uint64(len(list))
				prev = v
			}
		}
		if err == nil {
			return nil
		}
		whole = false
		var ioe *IOError
		var ce *CorruptPageError
		switch {
		case errors.As(err, &ioe):
			rep.IOErrors = append(rep.IOErrors, ioe)
		case errors.As(err, &ce):
			rep.Corrupt = append(rep.Corrupt, ce)
		default:
			rep.IOErrors = append(rep.IOErrors, &IOError{Page: pid, Op: "read", Err: err})
		}
		return nil
	})
	if whole && entries != 2*db.NumEdges() {
		rep.Corrupt = append(rep.Corrupt, corrupt(PageID(db.NumPages()-1),
			"the lists hold %d entries, not twice the superblock's %d edges", entries, db.NumEdges()))
	}
	return rep
}

var _ io.Closer = (*DB)(nil)

// FileStats summarizes the physical layout of a database.
type FileStats struct {
	// Pages is the number of data pages.
	Pages int
	// PageSize is the page size in bytes.
	PageSize int
	// FillFactor is used payload bytes / available bytes.
	FillFactor float64
	// Records is the total record (sublist) count across all pages.
	Records int
	// SplitVertices counts vertices whose adjacency spans pages.
	SplitVertices int
	// CompressedRecs counts records stored delta-varint compressed.
	CompressedRecs int
	// AdjBytes is the on-disk adjacency payload: compressed records
	// contribute their encoded size (skip table included), raw records 4
	// bytes per entry. AdjBytes / NumEdges is the bytes/edge figure the
	// benchmark book tracks.
	AdjBytes int64
}

// Stats scans every page and reports layout statistics.
func (db *DB) Stats() (*FileStats, error) {
	st := &FileStats{Pages: db.NumPages(), PageSize: db.PageSize()}
	var usedBytes, availBytes int64
	err := db.scan(func(_ PageID, p *Page, buf []byte, err error) error {
		if err != nil {
			return err
		}
		availBytes += int64(db.PageSize() - pageHeaderSize)
		recs, _ := p.Compressed()
		st.Records += p.Slots()
		st.CompressedRecs += recs
		for i := 0; i < p.Slots(); i++ {
			// A vertex spans pages when its first chunk continues.
			if continues, continuation := p.Chunk(i); continues && !continuation {
				st.SplitVertices++
			}
			// A record's payload is its length past the header: 4 bytes per
			// entry raw, the encoded size (skip table included) compressed.
			_, length := slotRecord(buf, i)
			st.AdjBytes += int64(length - recordHeaderSize)
		}
		// Slot array bytes, and the record area up to freeStart, which covers
		// headers and payload of every record.
		usedBytes += int64(slotSize*p.Slots() + int(binary.LittleEndian.Uint16(buf[6:])) - pageHeaderSize)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if availBytes > 0 {
		st.FillFactor = float64(usedBytes) / float64(availBytes)
	}
	return st, nil
}
