package storage

import (
	"fmt"
	"io"
	"os"

	"dualsim/internal/graph"
)

// MergedAdjFunc merges one vertex's base adjacency with the live-ingest
// overlay: it returns (base ∪ adds) \ tombstones, sorted ascending. The
// compactor calls it once per vertex; returning base unchanged means the
// vertex is unmutated. delta.Snapshot.Apply has this signature.
type MergedAdjFunc func(v graph.VertexID, base []graph.VertexID) []graph.VertexID

// mutatedSource adapts (base DB + overlay merge) into an EdgeSource: it
// streams every vertex's merged adjacency and emits each undirected edge
// once (u < w). Build re-reads the source twice (degree pass, sort pass).
// Vertices are visited in ascending ID order and the file stores them in
// that order, so each pass walks the base file page by page: every page is
// read and parsed once per pass.
type mutatedSource struct {
	db    *DB
	read  func(PageID) (*Page, error) // db.ReadPage, or a test's counting wrapper
	apply MergedAdjFunc

	page *Page            // the page the walk stands on (nil before the first read)
	slot int              // first record of page not yet passed
	base []graph.VertexID // base adjacency scratch

	next graph.VertexID   // next vertex to load
	cur  graph.VertexID   // vertex whose forward edges are being drained
	adj  []graph.VertexID // merged adjacency of cur; may alias base
	i    int              // next entry of adj to emit, past those <= cur
}

// NumVertices returns the vertex count (fixed until a rebuild).
func (s *mutatedSource) NumVertices() int { return s.db.NumVertices() }

// Reset rewinds the stream to the first vertex.
func (s *mutatedSource) Reset() error {
	s.next, s.cur, s.i = 0, 0, 0
	s.adj, s.page = nil, nil
	return nil
}

// baseAdjacency returns v's full adjacency list in the base file, the
// chunks of a multi-page vertex concatenated as the walk crosses its pages.
// Calls between two Resets must ask for ascending vertices; the result is
// valid until the next call.
func (s *mutatedSource) baseAdjacency(v graph.VertexID) ([]graph.VertexID, error) {
	first, last := s.db.SpanOf(v)
	s.base = s.base[:0]
	for pid := first; pid <= last; pid++ {
		if s.page == nil || s.page.ID != pid {
			p, err := s.read(pid)
			if err != nil {
				return nil, err
			}
			s.page, s.slot = p, 0
		}
		recs := s.page.Records
		for s.slot < len(recs) && recs[s.slot].Vertex < v {
			s.slot++
		}
		if s.slot < len(recs) && recs[s.slot].Vertex == v {
			s.base = append(s.base, recs[s.slot].Adj...)
		}
	}
	if len(s.base) != s.db.Degree(v) {
		return nil, fmt.Errorf("storage: vertex %d adjacency %d entries, directory says %d", v, len(s.base), s.db.Degree(v))
	}
	return s.base, nil
}

// Next returns the next undirected edge of the mutated graph.
func (s *mutatedSource) Next() (graph.VertexID, graph.VertexID, error) {
	for {
		if s.i < len(s.adj) {
			w := s.adj[s.i]
			s.i++
			return s.cur, w, nil
		}
		if int(s.next) >= s.db.NumVertices() {
			return 0, 0, io.EOF
		}
		v := s.next
		s.next++
		base, err := s.baseAdjacency(v)
		if err != nil {
			return 0, 0, err
		}
		// The merged list ascends: the forward edges are its tail above v.
		s.cur, s.adj, s.i = v, s.apply(v, base), 0
		for s.i < len(s.adj) && s.adj[s.i] <= v {
			s.i++
		}
	}
}

// Compact rewrites db with the overlay folded in as a fresh database file
// at dstPath, preserving vertex IDs (no degree relabeling — directory
// positions are the overlay's coordinate system) and stamping epoch into
// the new superblock. The source file is untouched; the caller swaps the
// result in with SwapFile once every reader has been moved over, then
// drains the folded overlay from the live delta store. opt.PageSize
// defaults to db's page size; opt.SkipReorder is forced, and so is
// opt.Compress: the folded file keeps db's record encoding.
func Compact(dstPath string, db *DB, apply MergedAdjFunc, epoch uint64, opt BuildOptions) (*BuildStats, error) {
	if opt.PageSize == 0 {
		opt.PageSize = db.PageSize()
	}
	compressed, err := db.compressed()
	if err != nil {
		return nil, err
	}
	opt.Compress = compressed
	opt.SkipReorder = true
	opt.AppendFraction = 0
	st, err := Build(dstPath, &mutatedSource{db: db, read: db.ReadPage, apply: apply}, opt)
	if err != nil {
		return nil, err
	}
	if err := StampEpoch(dstPath, epoch); err != nil {
		return nil, err
	}
	return st, nil
}

// compressed reports the encoding db's records are stored in. Build writes
// every record of a file in one encoding, so the first non-empty record
// tells (an empty one carries no payload to tell by); a file without edges
// reads as plain.
func (db *DB) compressed() (bool, error) {
	for pid := 0; pid < db.NumPages(); pid++ {
		p, err := db.ReadPage(PageID(pid))
		if err != nil {
			return false, err
		}
		for _, r := range p.Records {
			if len(r.Adj) > 0 {
				return r.CompBytes > 0, nil
			}
		}
	}
	return false, nil
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
