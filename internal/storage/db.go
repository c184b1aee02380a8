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

// Open opens a database file built with Build.
func Open(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open db: %w", err)
	}
	sb, err := readSuperblock(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if sb.pageSize < MinPageSize {
		f.Close()
		return nil, fmt.Errorf("storage: corrupt page size %d", sb.pageSize)
	}
	dirBytes := make([]byte, 12*int64(sb.numVertices))
	if _, err := f.ReadAt(dirBytes, int64(sb.dirOffset)); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: read directory: %w", err)
	}
	dir := make([]vertexLoc, sb.numVertices)
	for v := range dir {
		o := 12 * v
		dir[v] = vertexLoc{
			FirstPage: PageID(binary.LittleEndian.Uint32(dirBytes[o:])),
			Span:      binary.LittleEndian.Uint32(dirBytes[o+4:]),
			Degree:    binary.LittleEndian.Uint32(dirBytes[o+8:]),
		}
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

// ReadPage reads and parses page pid.
func (db *DB) ReadPage(pid PageID) (*Page, error) {
	buf := make([]byte, db.PageSize())
	if err := db.ReadPageInto(pid, buf); err != nil {
		return nil, err
	}
	return ParsePage(buf)
}

// LoadGraph reads the whole database into an in-memory graph. Used by tests
// and the in-memory baselines.
func (db *DB) LoadGraph() (*graph.Graph, error) {
	var edges [][2]graph.VertexID
	for pid := 0; pid < db.NumPages(); pid++ {
		p, err := db.ReadPage(PageID(pid))
		if err != nil {
			return nil, err
		}
		for _, r := range p.Records {
			for _, w := range r.Adj {
				if r.Vertex < w {
					edges = append(edges, [2]graph.VertexID{r.Vertex, w})
				}
			}
		}
	}
	return graph.NewGraph(db.NumVertices(), edges)
}

// PageGraph returns, for each page, the set of pages reachable by a single
// data edge (the page graph of Figure 1). Used by tests and stats.
func (db *DB) PageGraph() ([][]PageID, error) {
	out := make([][]PageID, db.NumPages())
	for pid := 0; pid < db.NumPages(); pid++ {
		p, err := db.ReadPage(PageID(pid))
		if err != nil {
			return nil, err
		}
		seen := map[PageID]bool{}
		for _, r := range p.Records {
			for _, w := range r.Adj {
				seen[db.PageOf(w)] = true
			}
		}
		adj := make([]PageID, 0, len(seen))
		for q := range seen {
			adj = append(adj, q)
		}
		sortPageIDs(adj)
		out[pid] = adj
	}
	return out, nil
}

func sortPageIDs(a []PageID) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// VerifyIntegrity re-reads every page and checks structural invariants:
// parseability, vertex order monotone across pages, directory consistency,
// and adjacency symmetry. Returns the first problem found.
func (db *DB) VerifyIntegrity() error {
	prev := graph.VertexID(0)
	first := true
	degrees := make([]uint32, db.NumVertices())
	for pid := 0; pid < db.NumPages(); pid++ {
		p, err := db.ReadPage(PageID(pid))
		if err != nil {
			return err
		}
		if p.ID != PageID(pid) {
			return fmt.Errorf("storage: page %d claims ID %d", pid, p.ID)
		}
		for _, r := range p.Records {
			if !first && r.Vertex < prev {
				return fmt.Errorf("storage: vertex order violated at page %d (%d after %d)", pid, r.Vertex, prev)
			}
			prev = r.Vertex
			first = false
			if !r.Continuation {
				if db.PageOf(r.Vertex) != PageID(pid) {
					return fmt.Errorf("storage: directory says P(%d)=%d but record starts at %d", r.Vertex, db.PageOf(r.Vertex), pid)
				}
			}
			degrees[r.Vertex] += uint32(len(r.Adj))
		}
	}
	for v := range degrees {
		if degrees[v] != uint32(db.Degree(graph.VertexID(v))) {
			return fmt.Errorf("storage: vertex %d has %d entries on disk, directory says %d", v, degrees[v], db.Degree(graph.VertexID(v)))
		}
	}
	return nil
}

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

// VerifyPages reads and validates every page, collecting all failures
// instead of stopping at the first (a corrupt page must not hide later
// ones). Structural invariants across pages are VerifyIntegrity's job.
func (db *DB) VerifyPages() *VerifyReport {
	rep := &VerifyReport{}
	buf := make([]byte, db.PageSize())
	for pid := 0; pid < db.NumPages(); pid++ {
		rep.PagesScanned++
		if err := db.ReadPageInto(PageID(pid), buf); err != nil {
			var ioe *IOError
			if errors.As(err, &ioe) {
				rep.IOErrors = append(rep.IOErrors, ioe)
			} else {
				rep.IOErrors = append(rep.IOErrors, &IOError{Page: PageID(pid), Op: "read", Err: err})
			}
			continue
		}
		if _, err := ParsePage(buf); err != nil {
			var ce *CorruptPageError
			if errors.As(err, &ce) {
				rep.Corrupt = append(rep.Corrupt, ce)
			} else {
				rep.Corrupt = append(rep.Corrupt, &CorruptPageError{Page: PageID(pid), Reason: err.Error()})
			}
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
	split := map[graph.VertexID]bool{}
	buf := make([]byte, db.PageSize())
	for pid := 0; pid < db.NumPages(); pid++ {
		if err := db.ReadPageInto(PageID(pid), buf); err != nil {
			return nil, err
		}
		p, err := ParsePage(buf)
		if err != nil {
			return nil, err
		}
		availBytes += int64(db.PageSize() - pageHeaderSize)
		for _, r := range p.Records {
			st.Records++
			if r.Continues || r.Continuation {
				split[r.Vertex] = true
			}
			if r.CompBytes > 0 {
				st.CompressedRecs++
				st.AdjBytes += int64(r.CompBytes)
			} else {
				st.AdjBytes += int64(4 * len(r.Adj))
			}
			// Slot array bytes (the record area is accounted via freeStart).
			usedBytes += int64(slotSize)
		}
		// Record area: freeStart covers headers and payload of every record.
		usedBytes += int64(int(binary.LittleEndian.Uint16(buf[6:])) - pageHeaderSize)
	}
	st.SplitVertices = len(split)
	if availBytes > 0 {
		st.FillFactor = float64(usedBytes) / float64(availBytes)
	}
	return st, nil
}
