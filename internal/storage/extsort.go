package storage

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"os"
	"sort"

	"dualsim/internal/graph"
)

// externalSorter sorts directed edge pairs by (src, dst) using sorted runs
// spilled to temporary files and a k-way heap merge — the preprocessing cost
// the paper reports in Table 3 (O(n_p log n_p) I/O).
type externalSorter struct {
	tempDir string // "" is os.TempDir()
	runSize int    // pairs per in-memory run
	buf     [][2]graph.VertexID
	runs    []string
}

func newExternalSorter(tempDir string, runSize int) *externalSorter {
	if runSize < 1 {
		runSize = 1 << 20
	}
	return &externalSorter{tempDir: tempDir, runSize: runSize, buf: make([][2]graph.VertexID, 0, runSize)}
}

// add buffers one directed pair, spilling a sorted run when full.
func (s *externalSorter) add(u, v graph.VertexID) error {
	s.buf = append(s.buf, [2]graph.VertexID{u, v})
	if len(s.buf) >= s.runSize {
		return s.spill()
	}
	return nil
}

func (s *externalSorter) spill() error {
	if len(s.buf) == 0 {
		return nil
	}
	sort.Slice(s.buf, func(i, j int) bool {
		if s.buf[i][0] != s.buf[j][0] {
			return s.buf[i][0] < s.buf[j][0]
		}
		return s.buf[i][1] < s.buf[j][1]
	})
	// A unique name: builds sharing a temp dir must not clobber each
	// other's runs.
	f, err := os.CreateTemp(s.tempDir, "dualsim-run-*.bin")
	if err != nil {
		return fmt.Errorf("storage: create run file: %w", err)
	}
	path := f.Name()
	w := bufio.NewWriterSize(f, 1<<16)
	var rec [8]byte
	for _, e := range s.buf {
		if err := writeEdgeRecord(w, rec[:], e[0], e[1]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	s.runs = append(s.runs, path)
	s.buf = s.buf[:0]
	return nil
}

// runReader streams one sorted run file.
type runReader struct {
	f    *os.File
	r    *bufio.Reader
	u, v graph.VertexID
	done bool
	buf  [8]byte
}

func openRun(path string) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rr := &runReader{f: f, r: bufio.NewReaderSize(f, 1<<16)}
	if err := rr.advance(); err != nil {
		f.Close()
		return nil, err
	}
	return rr, nil
}

func (rr *runReader) advance() error {
	u, v, err := readEdgeRecord(rr.r, rr.buf[:])
	if err == io.EOF {
		rr.done = true
		return nil
	}
	if err != nil {
		return err
	}
	rr.u, rr.v = u, v
	return nil
}

func (rr *runReader) close() { rr.f.Close() }

// runHeap is a min-heap of run readers ordered by their head pair.
type runHeap []*runReader

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if h[i].u != h[j].u {
		return h[i].u < h[j].u
	}
	return h[i].v < h[j].v
}
func (h runHeap) Swap(i, j int)        { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)          { *h = append(*h, x.(*runReader)) }
func (h *runHeap) Pop() any            { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h runHeap) head() *runReader     { return h[0] }
func (h *runHeap) fix()                { heap.Fix(h, 0) }
func (h *runHeap) popHead() *runReader { return heap.Pop(h).(*runReader) }

// merge streams the fully sorted, deduplicated sequence of directed pairs to
// emit. Self-loops (u == v) are dropped. Run files are removed afterwards.
func (s *externalSorter) merge(emit func(u, v graph.VertexID) error) error {
	if err := s.spill(); err != nil {
		return err
	}
	defer func() {
		for _, p := range s.runs {
			os.Remove(p)
		}
	}()
	var h runHeap
	for _, path := range s.runs {
		rr, err := openRun(path)
		if err != nil {
			return err
		}
		if rr.done {
			rr.close()
			continue
		}
		h = append(h, rr)
	}
	heap.Init(&h)
	havePrev := false
	var pu, pv graph.VertexID
	for len(h) > 0 {
		rr := h.head()
		u, v := rr.u, rr.v
		if err := rr.advance(); err != nil {
			return err
		}
		if rr.done {
			rr.close()
			h.popHead()
		} else {
			h.fix()
		}
		if u == v {
			continue
		}
		if havePrev && u == pu && v == pv {
			continue
		}
		havePrev, pu, pv = true, u, v
		if err := emit(u, v); err != nil {
			return err
		}
	}
	return nil
}

// numRuns reports how many runs were spilled (for stats/tests); callers must
// invoke it after merge has forced the final spill.
func (s *externalSorter) numRuns() int { return len(s.runs) }
