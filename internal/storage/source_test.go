package storage

import (
	"bufio"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dualsim/internal/graph"
)

func writeEdgeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func drain(src *FileSource) ([][2]graph.VertexID, error) {
	var out [][2]graph.VertexID
	for {
		u, v, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, [2]graph.VertexID{u, v})
	}
}

func TestFileSourceCommentsAndBlanks(t *testing.T) {
	path := writeEdgeFile(t, "# header\n\n  \n0 1\n# mid comment\n\n1 2\n   # indented comment\n2 0\n\n")
	src := NewFileSource(path, 3)
	defer src.Close()
	got, err := drain(src)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 0}}
	if len(got) != len(want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edges = %v, want %v", got, want)
		}
	}
}

func TestFileSourceSelfLoopsAndDuplicates(t *testing.T) {
	// The source is a faithful tokenizer: self-loops and duplicate edges
	// pass through; deduplication is the builder's job.
	path := writeEdgeFile(t, "0 0\n0 1\n0 1\n1 0\n")
	src := NewFileSource(path, 2)
	defer src.Close()
	got, err := drain(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d edges, want all 4 raw lines", len(got))
	}
	if got[0] != [2]graph.VertexID{0, 0} {
		t.Fatalf("self-loop mangled: %v", got[0])
	}
	n, m, err := ScanEdgeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || m != 4 {
		t.Fatalf("scan: n=%d m=%d, want 2 and 4", n, m)
	}
}

func TestFileSourceExtraFieldsTolerated(t *testing.T) {
	// Lines may carry trailing fields (weights, timestamps); the first two
	// are the edge.
	path := writeEdgeFile(t, "0 1 3.5 extra\n1 2 9\n")
	src := NewFileSource(path, 3)
	defer src.Close()
	got, err := drain(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != [2]graph.VertexID{0, 1} || got[1] != [2]graph.VertexID{1, 2} {
		t.Fatalf("edges = %v", got)
	}
}

func TestFileSourceErrorsCloseFile(t *testing.T) {
	cases := []struct {
		name    string
		content string
	}{
		{"malformed line", "0 1\nonly-one-field\n"},
		{"bad first vertex", "x 1\n"},
		{"bad second vertex", "0 -1\n"},
		{"huge vertex id", "0 99999999999999999999\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := writeEdgeFile(t, c.content)
			src := NewFileSource(path, 4)
			_, err := drain(src)
			if err == nil {
				t.Fatal("bad input accepted")
			}
			if src.f != nil || src.sc != nil {
				t.Fatal("error path leaked the open file")
			}
			// The source restarts cleanly: Next after failure re-opens from
			// the top and yields the same error (or the leading good edges).
			if _, _, err2 := src.Next(); err2 == nil {
				if _, err3 := drain(src); err3 == nil {
					t.Fatal("second pass over bad input succeeded")
				}
			}
			if src.f != nil {
				t.Fatal("second failure leaked the open file")
			}
		})
	}
}

func TestFileSourceScannerErrorClosesFile(t *testing.T) {
	// A line beyond the 1 MiB scanner budget surfaces bufio.ErrTooLong
	// wrapped with context, and must not leak the descriptor.
	path := writeEdgeFile(t, "0 1\n"+strings.Repeat("9", 2<<20)+" 1\n")
	src := NewFileSource(path, 2)
	_, err := drain(src)
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("want bufio.ErrTooLong in the chain, got %v", err)
	}
	if !strings.Contains(err.Error(), "read edge file") {
		t.Fatalf("scanner error lacks context: %v", err)
	}
	if src.f != nil || src.sc != nil {
		t.Fatal("scanner error leaked the open file")
	}
}

func TestFileSourceNearLimitLineOK(t *testing.T) {
	// A comment line just under the 1 MiB budget must scan fine.
	long := "# " + strings.Repeat("x", (1<<20)-1024)
	path := writeEdgeFile(t, long+"\n0 1\n")
	src := NewFileSource(path, 2)
	defer src.Close()
	got, err := drain(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != [2]graph.VertexID{0, 1} {
		t.Fatalf("edges = %v", got)
	}
}

func TestFileSourceMalformedErrorTruncated(t *testing.T) {
	// Error messages for pathological lines are bounded.
	path := writeEdgeFile(t, strings.Repeat("z", 4096)+"\n")
	src := NewFileSource(path, 2)
	_, err := drain(src)
	if err == nil {
		t.Fatal("bad input accepted")
	}
	if len(err.Error()) > 200 {
		t.Fatalf("error message not truncated (%d bytes)", len(err.Error()))
	}
}

func TestFileSourceUnreadableFile(t *testing.T) {
	src := NewFileSource(filepath.Join(t.TempDir(), "missing.txt"), 2)
	if _, _, err := src.Next(); err == nil {
		t.Fatal("missing file accepted")
	}
	if src.f != nil {
		t.Fatal("failed open left state behind")
	}
	if err := src.Close(); err != nil {
		t.Fatalf("Close after failed open: %v", err)
	}
}

func TestScanEdgeFilePropagatesErrors(t *testing.T) {
	path := writeEdgeFile(t, "0 1\nbroken\n")
	if _, _, err := ScanEdgeFile(path); err == nil {
		t.Fatal("scan accepted malformed file")
	}
	if _, _, err := ScanEdgeFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("scan accepted missing file")
	}
}

func TestFileSource(t *testing.T) {
	path := writeEdgeFile(t, "# comment\n0 1\n1 2\n\n2 3\n")
	n, m, err := ScanEdgeFile(path)
	if err != nil || n != 4 || m != 3 {
		t.Fatalf("scan: n=%d m=%d err=%v", n, m, err)
	}
	src := NewFileSource(path, n)
	defer src.Close()
	for pass := 0; pass < 2; pass++ { // a pass after Reset reads the same edges
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		if got, err := drain(src); err != nil || !slices.Equal(got, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}}) {
			t.Fatalf("pass %d: edges %v, err %v", pass, got, err)
		}
	}
}

func TestFileSourceMalformed(t *testing.T) {
	src := NewFileSource(writeEdgeFile(t, "0 x\n"), 2)
	defer src.Close()
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.Next(); err == nil {
		t.Fatal("malformed line accepted")
	}
}
