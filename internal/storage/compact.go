package storage

import (
	"fmt"
	"os"
	"time"

	"dualsim/internal/graph"
)

// MergedAdjFunc merges one vertex's base adjacency with the live-ingest
// overlay: it returns (base ∪ adds) \ tombstones. The compactor calls it
// once per vertex, in ascending vertex order, and writes the result as the
// vertex's list unchanged; returning base means the vertex is unmutated.
// The merged lists must form a simple undirected graph: each list sorted
// ascending and duplicate-free, v never in its own list, and w in v's list
// exactly when v is in w's. delta.Snapshot.Apply has this signature and
// keeps this contract (Store.Apply records every op on both endpoints and
// refuses U == V).
type MergedAdjFunc func(v graph.VertexID, base []graph.VertexID) []graph.VertexID

// baseWalk reads a database file page by page in vertex order. Vertices are
// stored in ascending ID order, so asking for ascending vertices reads and
// parses every page exactly once, each into the same buffer and page.
type baseWalk struct {
	db   *DB
	read func(PageID, []byte) error // db.ReadPageInto, or a test's counting wrapper

	buf  []byte           // raw image of page
	page *Page            // the page the walk stands on, parsed by ParsePageInto
	base []graph.VertexID // adjacency scratch
}

// start allocates the walk's page memory, once for the whole file, and moves
// the walk onto page 0, which holds vertex 0.
func (s *baseWalk) start() error {
	s.buf, s.page = make([]byte, s.db.PageSize()), pageFor(s.db.PageSize())
	return s.load(0)
}

// load reads and parses page pid, moving the walk onto it.
func (s *baseWalk) load(pid PageID) error {
	if err := s.read(pid, s.buf); err != nil {
		return err
	}
	return ParsePageInto(s.page, s.buf)
}

// adjacency returns v's full adjacency list in the base file, the chunks of
// a multi-page vertex concatenated as the walk crosses its pages. Calls must
// ask for ascending vertices; the result is valid until the next call.
func (s *baseWalk) adjacency(v graph.VertexID) ([]graph.VertexID, error) {
	first, last := s.db.SpanOf(v)
	s.base = s.base[:0]
	for pid := first; pid <= last; pid++ {
		if s.page.ID != pid {
			if err := s.load(pid); err != nil {
				return nil, err
			}
		}
		if i, ok := s.page.Slot(v); ok {
			list, _, _ := s.page.List(i)
			s.base = append(s.base, list...)
		}
	}
	if len(s.base) != s.db.Degree(v) {
		return nil, fmt.Errorf("storage: vertex %d adjacency %d entries, directory says %d", v, len(s.base), s.db.Degree(v))
	}
	return s.base, nil
}

// Compact rewrites db with the overlay folded in as a fresh database file
// at dstPath, in one sequential pass: it walks db's pages once in vertex
// order, merges each vertex's list with apply and hands it to the page
// writer Build uses, then writes the directory and a superblock stamped
// with epoch and syncs once. Vertex IDs are preserved (no degree
// relabeling — directory positions are the overlay's coordinate system),
// nothing is sorted and no file but dstPath is created. The folded file
// keeps db's page size and record encoding, so opt is not read; the
// parameter stays for existing callers. Any read error, or a base list
// that disagrees with db's directory, fails the compaction. The source file
// is untouched; the caller swaps the result in with SwapFile once every
// reader has been moved over, then drains the folded overlay from the live
// delta store.
func Compact(dstPath string, db *DB, apply MergedAdjFunc, epoch uint64, opt BuildOptions) (*BuildStats, error) {
	return compact(dstPath, &baseWalk{db: db, read: db.ReadPageInto}, apply, epoch)
}

func compact(dstPath string, s *baseWalk, apply MergedAdjFunc, epoch uint64) (*BuildStats, error) {
	start := time.Now()
	// Build writes every record of a file in one encoding, empty records
	// included, so page 0's first record tells which.
	if err := s.start(); err != nil {
		return nil, err
	}
	pw, err := createDB(dstPath, s.db.PageSize(), s.db.NumVertices(), s.page.Slots() > 0 && firstRecordCompressed(s.buf))
	if err != nil {
		return nil, err
	}
	defer pw.f.Close()
	for v := graph.VertexID(0); int(v) < s.db.NumVertices(); v++ {
		base, err := s.adjacency(v)
		if err != nil {
			return nil, err
		}
		if err := pw.writeVertex(v, apply(v, base)); err != nil {
			return nil, err
		}
	}
	return pw.commit(epoch, start)
}

// firstRecordCompressed reports whether the first record of a parsed page
// image carries flagCompressed.
func firstRecordCompressed(buf []byte) bool {
	off, _ := slotRecord(buf, 0)
	return buf[off+4]&flagCompressed != 0
}

// SwapFile atomically replaces the live database file at livePath with the
// compacted file at tmpPath (rename(2); both must be on one filesystem —
// write the compaction output next to the live file). Open handles on the
// old file keep reading the old inode, so in-flight runs finish against
// the graph version they started with.
func SwapFile(tmpPath, livePath string) error {
	if err := os.Rename(tmpPath, livePath); err != nil {
		return fmt.Errorf("storage: swap compacted db: %w", err)
	}
	return nil
}
