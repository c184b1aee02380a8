package storage

import (
	"encoding/binary"
	"os"
	"slices"
	"strings"
	"testing"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

// TestBuildPageSizeLimit: slot offsets and lengths are uint16, so a page of
// 64 KiB is the largest whose every byte a slot can address. Files of full
// pages of exactly that size hold to the oracle, and Build refuses a larger
// page rather than write a file no reader can parse.
func TestBuildPageSizeLimit(t *testing.T) {
	g := gen.ErdosRenyi(2000, 20000, 13)
	for _, compress := range []bool{false, true} {
		pin(t, pinned(g, BuildOptions{PageSize: MaxPageSize, Compress: compress}))
		_, err := BuildFromGraph(scratch(t, "big.db"), g, BuildOptions{PageSize: 2 * MaxPageSize, Compress: compress, TempDir: scratchDir})
		if err == nil || !strings.Contains(err.Error(), "65536") {
			t.Fatalf("compress=%v, 128 KiB pages: Build returned %v, want an error naming the 65536-byte limit", compress, err)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(scratch(t, "missing.db")); err == nil {
		t.Error("missing file accepted")
	}
	bad := scratch(t, "bad.db")
	if err := os.WriteFile(bad, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Error("zeroed file accepted")
	}
}

// TestOpenValidatesDirectory: Open refuses a superblock or page-first array
// it cannot trust — a page size outside [MinPageSize, MaxPageSize], pages or
// an array that overrun the file (checked before the array is allocated), a
// first page that is not vertex 0's start, entries that decrease or repeat
// other than as a hub's continuation, a vertex beyond the file's count, a
// vertex count the last page cannot hold — instead of handing readers a
// vertex whose pages do not exist.
func TestOpenValidatesDirectory(t *testing.T) {
	g := graph.MustNewGraph(6, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	pristine := scratch(t, "pristine.db")
	if _, err := BuildFromGraph(pristine, g, BuildOptions{PageSize: 64}); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}
	dirOffset := int(binary.LittleEndian.Uint64(image[32:]))
	if numPages := binary.LittleEndian.Uint32(image[24:]); numPages < 3 {
		t.Fatalf("fixture has %d pages, want 3 or more", numPages)
	}
	put32 := func(off int, v uint32) func(img []byte) []byte {
		return func(img []byte) []byte { binary.LittleEndian.PutUint32(img[off:], v); return img }
	}
	entry := func(p int, e uint32) func(img []byte) []byte { return put32(dirOffset+4*p, e) }
	for _, tc := range []struct {
		name string
		mut  func(img []byte) []byte
	}{
		{"page size above MaxPageSize", put32(8, 2*MaxPageSize)},
		{"page size 0", put32(8, 0)},
		{"truncated page array", func(img []byte) []byte { return img[:len(img)-5] }},
		{"page array past the file", put32(32, uint32(len(image)))}, // the offset's high half is 0
		{"pages past the file", put32(24, uint32(len(image)))},
		{"vertex count beyond the last page", put32(12, 1<<30)},
		{"page 0 begins past vertex 0", entry(0, 1)},
		{"page 0 begins with a continuation", entry(0, contBit)},
		{"entries decrease", entry(2, 1|contBit)},
		{"a repeat that is not a continuation", entry(2, binary.LittleEndian.Uint32(image[dirOffset+4:]))},
		{"a vertex beyond the count", entry(2, 6)},
	} {
		path := scratch(t, "bad.db")
		if err := os.WriteFile(path, tc.mut(slices.Clone(image)), 0o644); err != nil {
			t.Fatal(err)
		}
		if db, err := Open(path); err == nil {
			db.Close()
			t.Errorf("%s: Open accepted the file", tc.name)
		}
	}
	db, err := Open(pristine)
	if err != nil {
		t.Fatalf("pristine file: %v", err)
	}
	db.Close()
}
