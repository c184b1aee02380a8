package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"dualsim/internal/graph"
)

// BuildOptions configures database construction.
type BuildOptions struct {
	// PageSize is the slotted-page size in bytes (default DefaultPageSize).
	PageSize int
	// TempDir holds external-sort run files (default os.TempDir()).
	TempDir string
	// RunSize is the number of directed pairs per in-memory sort run
	// (default 1<<20). Small values force real multi-run external sorts.
	RunSize int
	// SkipReorder keeps the source's vertex IDs instead of relabeling by the
	// degree-based total order.
	SkipReorder bool
	// AppendFraction, when in (0,1), reorders only the lowest (1-f) fraction
	// of vertices and appends the rest in original order — the paper's
	// evolving-graph simulation ("95% of vertices fully sorted, append 5%").
	AppendFraction float64
	// Compress stores adjacency lists delta+varint encoded. Sorted lists of
	// nearby IDs shrink well below 4 bytes/entry, cutting pages and reads.
	Compress bool
}

// BuildStats reports what the preprocessing step did.
type BuildStats struct {
	// NumVertices is the number of vertices written to the database.
	NumVertices int
	// NumEdges is the number of directed adjacency entries written.
	NumEdges uint64
	// NumPages is the number of fixed-size pages the adjacency occupies.
	NumPages int
	// MaxDegree is the largest adjacency-list length seen.
	MaxDegree int
	// SortRuns is the number of external-sort runs merged.
	SortRuns int
	// Elapsed is the wall-clock duration of the whole build.
	Elapsed time.Duration
}

// Build preprocesses the edges of src into a DUALSIM database file at path:
// it relabels vertices by the degree-based total order, externally sorts the
// directed edge pairs, and writes adjacency lists into slotted pages with a
// trailing vertex directory. This is the paper's Table 3 preprocessing.
func Build(path string, src EdgeSource, opt BuildOptions) (*BuildStats, error) {
	start := time.Now()
	if opt.PageSize == 0 {
		opt.PageSize = DefaultPageSize
	}
	if opt.PageSize < MinPageSize {
		return nil, fmt.Errorf("storage: page size %d below minimum %d", opt.PageSize, MinPageSize)
	}
	if opt.PageSize > MaxPageSize {
		return nil, fmt.Errorf("storage: page size %d above the format's limit of %d (slot offsets and lengths are uint16)", opt.PageSize, MaxPageSize)
	}
	n := src.NumVertices()
	if n <= 0 {
		return nil, fmt.Errorf("storage: source has no vertices")
	}

	// Pass 1: degree counting for the total order.
	deg := make([]uint32, n)
	if err := src.Reset(); err != nil {
		return nil, err
	}
	for {
		u, v, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if u == v {
			continue
		}
		if int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("storage: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		deg[u]++
		deg[v]++
	}
	perm := buildPerm(deg, opt)

	// Pass 2: externally sort relabeled directed pairs.
	sorter := newExternalSorter(opt.TempDir, opt.RunSize)
	if err := src.Reset(); err != nil {
		return nil, err
	}
	for {
		u, v, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if u == v {
			continue
		}
		pu, pv := perm[u], perm[v]
		if err := sorter.add(pu, pv); err != nil {
			return nil, err
		}
		if err := sorter.add(pv, pu); err != nil {
			return nil, err
		}
	}

	// Merge into pages.
	pw, err := createDB(path, opt.PageSize, n, opt.Compress)
	if err != nil {
		return nil, err
	}
	defer pw.f.Close()
	if err := sorter.merge(pw.addEdge); err != nil {
		return nil, err
	}
	st, err := pw.commit(0, start)
	if err != nil {
		return nil, err
	}
	st.SortRuns = sorter.numRuns()
	return st, nil
}

// buildPerm computes the relabeling permutation (perm[old] = new).
func buildPerm(deg []uint32, opt BuildOptions) []graph.VertexID {
	n := len(deg)
	perm := make([]graph.VertexID, n)
	if opt.SkipReorder {
		for i := range perm {
			perm[i] = graph.VertexID(i)
		}
		return perm
	}
	sorted := n
	if opt.AppendFraction > 0 && opt.AppendFraction < 1 {
		sorted = int(float64(n) * (1 - opt.AppendFraction))
	}
	order := make([]int, sorted)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if deg[order[i]] != deg[order[j]] {
			return deg[order[i]] < deg[order[j]]
		}
		return order[i] < order[j]
	})
	for newID, oldID := range order {
		perm[oldID] = graph.VertexID(newID)
	}
	for oldID := sorted; oldID < n; oldID++ {
		perm[oldID] = graph.VertexID(oldID) // appended tail keeps its position
	}
	return perm
}

// vertexLoc is one directory entry.
type vertexLoc struct {
	FirstPage PageID
	Span      uint32
	Degree    uint32
}

// dbPageWriter packs adjacency lists, in vertex order, into the pages of a
// new database file, emitting empty records for isolated vertices so every
// vertex has a directory entry. Build feeds it edge by edge (addEdge),
// Compact list by list (writeVertex); commit finishes the file.
type dbPageWriter struct {
	f               *os.File
	w               *bufio.Writer
	pw              *PageWriter
	pageSize        int
	compress        bool
	n               int
	dir             []vertexLoc
	numPages        int
	maxDegree       int
	directedRecords uint64

	cur        graph.VertexID // vertex whose adjacency is being accumulated
	curAdj     []graph.VertexID
	nextVertex int // next vertex that must receive a record
}

// createDB creates the database file at path and returns the writer that
// fills it, positioned past the reserved superblock page.
func createDB(path string, pageSize, n int, compress bool) (*dbPageWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: create db: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<18)
	if _, err := w.Write(make([]byte, pageSize)); err != nil {
		f.Close()
		return nil, err
	}
	return &dbPageWriter{
		f:        f,
		w:        w,
		pw:       NewPageWriter(pageSize, 0),
		pageSize: pageSize,
		compress: compress,
		n:        n,
		dir:      make([]vertexLoc, n),
		cur:      graph.VertexID(n), // sentinel: nothing accumulated
	}, nil
}

func (b *dbPageWriter) addEdge(u, v graph.VertexID) error {
	if b.cur != u {
		if err := b.flushVertex(); err != nil {
			return err
		}
		b.cur = u
		b.curAdj = b.curAdj[:0]
	}
	b.curAdj = append(b.curAdj, v)
	return nil
}

// flushVertex writes the accumulated vertex (and empty records for any
// skipped isolated vertices before it).
func (b *dbPageWriter) flushVertex() error {
	if int(b.cur) >= b.n { // sentinel
		return nil
	}
	if err := b.fillIsolated(int(b.cur)); err != nil {
		return err
	}
	return b.writeVertex(b.cur, b.curAdj)
}

func (b *dbPageWriter) fillIsolated(upto int) error {
	for v := b.nextVertex; v < upto; v++ {
		if err := b.writeVertex(graph.VertexID(v), nil); err != nil {
			return err
		}
	}
	return nil
}

// writeVertex writes v's whole list; vertices must come in ascending order,
// each once.
func (b *dbPageWriter) writeVertex(v graph.VertexID, adj []graph.VertexID) error {
	b.maxDegree = max(b.maxDegree, len(adj))
	b.directedRecords += uint64(len(adj))
	b.dir[v].Degree = uint32(len(adj))
	b.nextVertex = int(v) + 1
	if b.compress {
		return b.writeVertexCompressed(v, adj)
	}
	freshCap := MaxEntriesPerPage(b.pageSize)
	// If the whole record fits in a fresh page but not the current one,
	// flush first so small vertices are never split.
	if len(adj) <= freshCap && b.pw.FreeEntryCapacity() < len(adj) {
		if err := b.flushPage(); err != nil {
			return err
		}
	}
	first := true
	remaining := adj
	for {
		capEntries := b.pw.FreeEntryCapacity()
		if capEntries < 0 || (capEntries == 0 && len(remaining) > 0) {
			if err := b.flushPage(); err != nil {
				return err
			}
			continue
		}
		take := len(remaining)
		if take > capEntries {
			take = capEntries
		}
		continues := take < len(remaining)
		if !b.pw.Add(v, remaining[:take], continues, !first) {
			if err := b.flushPage(); err != nil {
				return err
			}
			continue
		}
		if first {
			b.dir[v].FirstPage = PageID(b.numPages)
			first = false
		}
		b.dir[v].Span = uint32(b.numPages) - uint32(b.dir[v].FirstPage) + 1
		remaining = remaining[take:]
		if len(remaining) == 0 {
			return nil
		}
		if err := b.flushPage(); err != nil {
			return err
		}
	}
}

// writeVertexCompressed is writeVertex for the delta-varint encoding:
// chunk boundaries are computed in encoded bytes (skip table included)
// instead of entry counts.
func (b *dbPageWriter) writeVertexCompressed(v graph.VertexID, adj []graph.VertexID) error {
	freshPayload := b.pageSize - pageHeaderSize - slotSize - recordHeaderSize
	if n, _ := graph.MaxCompressedEntries(adj, freshPayload); n == len(adj) {
		// Whole record fits in a fresh page: avoid splitting small vertices.
		if !b.pw.AddCompressed(v, adj, false, false) {
			if err := b.flushPage(); err != nil {
				return err
			}
			if !b.pw.AddCompressed(v, adj, false, false) {
				return fmt.Errorf("storage: record for vertex %d does not fit an empty page", v)
			}
		}
		b.dir[v].FirstPage = PageID(b.numPages)
		b.dir[v].Span = 1
		return nil
	}
	first := true
	remaining := adj
	for {
		take, _ := graph.MaxCompressedEntries(remaining, b.pw.FreeBytes())
		if take == 0 && len(remaining) > 0 {
			if err := b.flushPage(); err != nil {
				return err
			}
			continue
		}
		continues := take < len(remaining)
		if !b.pw.AddCompressed(v, remaining[:take], continues, !first) {
			if err := b.flushPage(); err != nil {
				return err
			}
			continue
		}
		if first {
			b.dir[v].FirstPage = PageID(b.numPages)
			first = false
		}
		b.dir[v].Span = uint32(b.numPages) - uint32(b.dir[v].FirstPage) + 1
		remaining = remaining[take:]
		if len(remaining) == 0 {
			return nil
		}
		if err := b.flushPage(); err != nil {
			return err
		}
	}
}

func (b *dbPageWriter) flushPage() error {
	if b.pw.NumRecords() == 0 {
		return nil
	}
	if _, err := b.w.Write(b.pw.Bytes()); err != nil {
		return err
	}
	b.numPages++
	b.pw.Reset(PageID(b.numPages))
	return nil
}

// commit writes the vertex addEdge is accumulating, empty records for the
// vertices not yet written, the last page, the vertex directory and the
// superblock, stamped with epoch, then syncs the file once.
func (b *dbPageWriter) commit(epoch uint64, start time.Time) (*BuildStats, error) {
	if err := b.flushVertex(); err != nil {
		return nil, err
	}
	if err := b.fillIsolated(b.n); err != nil {
		return nil, err
	}
	if err := b.flushPage(); err != nil {
		return nil, err
	}
	var rec [12]byte
	for _, loc := range b.dir {
		binary.LittleEndian.PutUint32(rec[0:], uint32(loc.FirstPage))
		binary.LittleEndian.PutUint32(rec[4:], loc.Span)
		binary.LittleEndian.PutUint32(rec[8:], loc.Degree)
		if _, err := b.w.Write(rec[:]); err != nil {
			return nil, err
		}
	}
	if err := b.w.Flush(); err != nil {
		return nil, err
	}
	sb := superblock{
		pageSize:    uint32(b.pageSize),
		numVertices: uint32(b.n),
		numEdges:    b.directedRecords / 2,
		numPages:    uint32(b.numPages),
		maxDegree:   uint32(b.maxDegree),
		dirOffset:   uint64(b.pageSize) * uint64(b.numPages+1),
		epoch:       epoch,
	}
	if err := sb.writeTo(b.f); err != nil {
		return nil, err
	}
	if err := b.f.Sync(); err != nil {
		return nil, err
	}
	return &BuildStats{
		NumVertices: b.n,
		NumEdges:    b.directedRecords / 2,
		NumPages:    b.numPages,
		MaxDegree:   b.maxDegree,
		Elapsed:     time.Since(start),
	}, nil
}

// BuildFromGraph is a convenience wrapper writing g to path.
func BuildFromGraph(path string, g *graph.Graph, opt BuildOptions) (*BuildStats, error) {
	return Build(path, NewGraphSource(g), opt)
}
