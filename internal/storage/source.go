package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dualsim/internal/graph"
)

// EdgeSource streams undirected edges. Build consumes a source twice (one
// pass to count degrees, one to emit sorted runs), so sources must support
// Reset.
type EdgeSource interface {
	// Reset rewinds the source to the first edge.
	Reset() error
	// Next returns the next edge, or io.EOF when exhausted.
	Next() (u, v graph.VertexID, err error)
	// NumVertices returns the vertex count (IDs are 0..NumVertices-1).
	NumVertices() int
}

// SliceSource adapts an in-memory edge list to an EdgeSource.
type SliceSource struct {
	// N is the vertex count (IDs are 0..N-1).
	N int
	// Edges is the undirected edge list, one {u, v} pair per edge.
	Edges [][2]graph.VertexID
	pos   int
}

// NewSliceSource returns a source over the given edges.
func NewSliceSource(n int, edges [][2]graph.VertexID) *SliceSource {
	return &SliceSource{N: n, Edges: edges}
}

// Reset implements EdgeSource.
func (s *SliceSource) Reset() error { s.pos = 0; return nil }

// Next implements EdgeSource.
func (s *SliceSource) Next() (graph.VertexID, graph.VertexID, error) {
	if s.pos >= len(s.Edges) {
		return 0, 0, io.EOF
	}
	e := s.Edges[s.pos]
	s.pos++
	return e[0], e[1], nil
}

// NumVertices implements EdgeSource.
func (s *SliceSource) NumVertices() int { return s.N }

// GraphSource adapts an in-memory graph to an EdgeSource.
type GraphSource struct {
	// G is the in-memory graph whose edges are streamed.
	G    *graph.Graph
	v    int
	next int
}

// NewGraphSource returns a source over g's edges.
func NewGraphSource(g *graph.Graph) *GraphSource { return &GraphSource{G: g} }

// Reset implements EdgeSource.
func (s *GraphSource) Reset() error { s.v, s.next = 0, 0; return nil }

// Next implements EdgeSource.
func (s *GraphSource) Next() (graph.VertexID, graph.VertexID, error) {
	for s.v < s.G.NumVertices() {
		adj := s.G.Adj(graph.VertexID(s.v))
		for s.next < len(adj) {
			w := adj[s.next]
			s.next++
			if graph.VertexID(s.v) < w {
				return graph.VertexID(s.v), w, nil
			}
		}
		s.v++
		s.next = 0
	}
	return 0, 0, io.EOF
}

// NumVertices implements EdgeSource.
func (s *GraphSource) NumVertices() int { return s.G.NumVertices() }

// FileSource streams a whitespace-separated edge-list text file
// ("u v" per line, '#' comments allowed). The vertex count must be supplied
// (or discovered with ScanEdgeFile).
type FileSource struct {
	// Path is the edge-list file being read.
	Path string
	// N is the vertex count (IDs are 0..N-1).
	N  int
	f  *os.File
	sc *bufio.Scanner
}

// NewFileSource opens path as an edge-list source over n vertices.
func NewFileSource(path string, n int) *FileSource {
	return &FileSource{Path: path, N: n}
}

// Reset implements EdgeSource.
func (s *FileSource) Reset() error {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	f, err := os.Open(s.Path)
	if err != nil {
		return fmt.Errorf("storage: open edge file: %w", err)
	}
	s.f = f
	s.sc = bufio.NewScanner(f)
	s.sc.Buffer(make([]byte, 1<<16), 1<<20)
	return nil
}

// Next implements EdgeSource.
func (s *FileSource) Next() (graph.VertexID, graph.VertexID, error) {
	if s.sc == nil {
		if err := s.Reset(); err != nil {
			return 0, 0, err
		}
	}
	for s.sc.Scan() {
		line := strings.TrimSpace(s.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, 0, s.fail(fmt.Errorf("storage: malformed edge line %q", truncateLine(line)))
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return 0, 0, s.fail(fmt.Errorf("storage: bad vertex %q: %w", fields[0], err))
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return 0, 0, s.fail(fmt.Errorf("storage: bad vertex %q: %w", fields[1], err))
		}
		return graph.VertexID(u), graph.VertexID(v), nil
	}
	if err := s.sc.Err(); err != nil {
		return 0, 0, s.fail(fmt.Errorf("storage: read edge file: %w", err))
	}
	s.f.Close()
	s.f = nil
	s.sc = nil
	return 0, 0, io.EOF
}

// fail closes the file and resets state before surfacing err, so an
// abandoned source never leaks its descriptor and a later Next restarts
// cleanly from the top of the file.
func (s *FileSource) fail(err error) error {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	s.sc = nil
	return err
}

// truncateLine bounds error messages for pathological inputs.
func truncateLine(line string) string {
	const max = 80
	if len(line) <= max {
		return line
	}
	return line[:max] + "..."
}

// NumVertices implements EdgeSource.
func (s *FileSource) NumVertices() int { return s.N }

// Close releases the underlying file, if open.
func (s *FileSource) Close() error {
	if s.f != nil {
		err := s.f.Close()
		s.f = nil
		s.sc = nil
		return err
	}
	return nil
}

// ScanEdgeFile reads an edge-list file once and returns 1 + the maximum
// vertex ID (the implied vertex count) and the number of lines parsed.
func ScanEdgeFile(path string) (n int, edges int, err error) {
	src := NewFileSource(path, 0)
	defer src.Close()
	if err := src.Reset(); err != nil {
		return 0, 0, err
	}
	maxID := -1
	for {
		u, v, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		maxID = max(maxID, int(u), int(v))
		edges++
	}
	return maxID + 1, edges, nil
}

// writeEdgeRecord serializes one directed pair to 8 bytes.
func writeEdgeRecord(w io.Writer, buf []byte, u, v graph.VertexID) error {
	binary.LittleEndian.PutUint32(buf[0:], uint32(u))
	binary.LittleEndian.PutUint32(buf[4:], uint32(v))
	_, err := w.Write(buf[:8])
	return err
}

// readEdgeRecord deserializes one directed pair from 8 bytes.
func readEdgeRecord(r io.Reader, buf []byte) (u, v graph.VertexID, err error) {
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return 0, 0, err
	}
	return graph.VertexID(binary.LittleEndian.Uint32(buf[0:])),
		graph.VertexID(binary.LittleEndian.Uint32(buf[4:])), nil
}
