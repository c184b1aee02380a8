package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"dualsim/internal/graph"
)

const (
	dbMagic = 0x42445344 // "DSDB" little endian
	// dbVersion is the format version Build writes. v2 added CRC-32 page
	// checksums; v3 added skip tables to compressed records (flagSkips).
	// The change is purely additive — records self-describe via flags —
	// so Open also accepts v2 files (minReadableVersion) and reads them
	// bit-identically. See docs/STORAGE.md for the compatibility rules.
	dbVersion          = 3
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
	if v := binary.LittleEndian.Uint32(buf[4:]); v < minReadableVersion || v > dbVersion {
		return nil, fmt.Errorf("storage: unsupported version %d (readable: %d..%d)", v, minReadableVersion, dbVersion)
	}
	return &superblock{
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
	f   *os.File
	sb  superblock
	dir []vertexLoc
}

// Open opens a database file built with Build. It checks the superblock and
// the directory before trusting them: the page size within
// [MinPageSize, MaxPageSize], the directory inside the file (before
// allocating it), and every entry's span at least one page, ending before
// the last data page.
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
	dirLen := 12 * uint64(sb.numVertices)
	if size := uint64(fi.Size()); sb.dirOffset > size || dirLen > size-sb.dirOffset {
		return nil, fmt.Errorf("storage: directory of %d vertices at offset %d overruns the %d-byte file", sb.numVertices, sb.dirOffset, size)
	}
	dirBytes := make([]byte, dirLen)
	if _, err := f.ReadAt(dirBytes, int64(sb.dirOffset)); err != nil {
		return nil, fmt.Errorf("storage: read directory: %w", err)
	}
	dir := make([]vertexLoc, sb.numVertices)
	for v := range dir {
		o := 12 * v
		loc := vertexLoc{
			FirstPage: PageID(binary.LittleEndian.Uint32(dirBytes[o:])),
			Span:      binary.LittleEndian.Uint32(dirBytes[o+4:]),
			Degree:    binary.LittleEndian.Uint32(dirBytes[o+8:]),
		}
		if loc.Span == 0 || uint64(loc.FirstPage)+uint64(loc.Span) > uint64(sb.numPages) {
			return nil, fmt.Errorf("storage: corrupt directory entry for vertex %d: span %d from page %d in a file of %d pages",
				v, loc.Span, loc.FirstPage, sb.numPages)
		}
		dir[v] = loc
	}
	return &DB{f: f, sb: *sb, dir: dir}, nil
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

// MaxDegree returns the largest vertex degree.
func (db *DB) MaxDegree() int { return int(db.sb.maxDegree) }

// Epoch returns the data epoch stamped into the superblock: 0 for a file
// that has never taken a mutation, otherwise the epoch of the last batch
// persisted via StampEpoch (or preserved by Compact).
func (db *DB) Epoch() uint64 { return db.sb.epoch }

// PageOf returns P(v): the first page holding v's adjacency list.
func (db *DB) PageOf(v graph.VertexID) PageID { return db.dir[v].FirstPage }

// SpanOf returns the first and last page of v's adjacency sublists.
func (db *DB) SpanOf(v graph.VertexID) (first, last PageID) {
	loc := db.dir[v]
	return loc.FirstPage, loc.FirstPage + PageID(loc.Span) - 1
}

// Degree returns d(v) from the directory without touching data pages.
func (db *DB) Degree(v graph.VertexID) int { return int(db.dir[v].Degree) }

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

// scan reads and parses every page in order, each into one buffer and one
// page allocated once for the whole scan (ParsePageInto), and hands visit the
// page, its raw image and the read or parse error; the page holds nothing
// usable when err is set. The scan stops at the first error visit returns.
func (db *DB) scan(visit func(pid PageID, p *Page, buf []byte, err error) error) error {
	buf, p := make([]byte, db.PageSize()), pageFor(db.PageSize())
	for pid := PageID(0); int(pid) < db.NumPages(); pid++ {
		err := db.ReadPageInto(pid, buf)
		if err == nil {
			err = ParsePageInto(p, buf)
		}
		if err := visit(pid, p, buf, err); err != nil {
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

// VerifyPages reads every page once and checks it: it must be readable and
// parse (ParsePageInto: checksum, framing, a dense vertex-ID run), carry its
// own ID, and agree with the pages before it and the directory — vertices
// ascend across pages, a vertex's first record is on the page the directory
// names, and its entries sum to its directory degree. Every page that cannot
// be read or parsed is reported, so a corrupt page does not hide later ones.
// The cross-page checks stop at the first failure of any kind (after it they
// would only echo it) and report theirs as a CorruptPageError naming the page
// they found it on, the directory's first page of the vertex for a degree.
func (db *DB) VerifyPages() *VerifyReport {
	rep := &VerifyReport{}
	degrees := make([]uint32, db.NumVertices())
	prev, whole := graph.VertexID(0), true // whole: no failure yet, the cross-page checks stand
	corrupt := func(pid PageID, format string, args ...any) *CorruptPageError {
		return &CorruptPageError{Page: pid, Reason: fmt.Sprintf(format, args...)}
	}
	db.scan(func(pid PageID, p *Page, _ []byte, err error) error {
		rep.PagesScanned++
		if err == nil && p.ID != pid {
			err = corrupt(pid, "page claims ID %d", p.ID)
		}
		for i := 0; err == nil && whole && i < p.Slots(); i++ {
			v := p.First() + graph.VertexID(i)
			_, continuation := p.Chunk(i)
			switch {
			case int(v) >= len(degrees):
				err = corrupt(pid, "vertex %d outside the directory's %d vertices", v, len(degrees))
			case v < prev:
				err = corrupt(pid, "vertex order violated (%d after %d)", v, prev)
			case !continuation && db.PageOf(v) != pid:
				err = corrupt(pid, "directory says P(%d)=%d but its record starts here", v, db.PageOf(v))
			default:
				list, _, _ := p.List(i)
				degrees[v] += uint32(len(list))
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
	for v := 0; whole && v < len(degrees); v++ {
		if want := db.dir[v].Degree; degrees[v] != want {
			rep.Corrupt = append(rep.Corrupt, corrupt(db.dir[v].FirstPage,
				"vertex %d has %d entries on disk, directory says %d", v, degrees[v], want))
			break
		}
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
