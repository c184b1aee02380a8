package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// sortedRandom returns a sorted duplicate-free list of n vertices drawn
// from [0, span).
func sortedRandom(rng *rand.Rand, n, span int) []VertexID {
	seen := make(map[int]bool, n)
	out := make([]VertexID, 0, n)
	for len(out) < n && len(seen) < span {
		v := rng.Intn(span)
		if !seen[v] {
			seen[v] = true
			out = append(out, VertexID(v))
		}
	}
	sortVertexIDs(out)
	return out
}

func sortVertexIDs(s []VertexID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func mustParse(t *testing.T, adj []VertexID) CompressedAdj {
	t.Helper()
	payload, withSkips := AppendCompressed(nil, adj)
	c, err := ParseCompressed(payload, len(adj), withSkips)
	if err != nil {
		t.Fatalf("ParseCompressed(%d entries): %v", len(adj), err)
	}
	return c
}

func TestCompressedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Lists around the skip interval; single entries; deltas of one to five
	// varint bytes; and IDs drawn from the whole 32-bit range.
	lists := [][]VertexID{{0}, {5}, {0, 1000000, 1000001}, {7, 7 + 127, 7 + 127 + 128, 1 << 30}, sortedRandom(rng, 300, 1<<32-1)}
	for _, n := range []int{0, 1, 2, SkipInterval - 1, SkipInterval, SkipInterval + 1, 100, 1000} {
		lists = append(lists, sortedRandom(rng, n, 10*n+10))
	}
	for _, adj := range lists {
		n := len(adj)
		c := mustParse(t, adj)
		payload, withSkips := AppendCompressed(nil, adj)
		fused, _, err := DecodeCompressed([]VertexID{7}, payload, n, withSkips, 0)
		if err != nil {
			t.Fatalf("n=%d: DecodeCompressed: %v", n, err)
		}
		for name, got := range map[string][]VertexID{"AppendTo": c.AppendTo(nil), "DecodeCompressed": fused[1:]} {
			if len(got) != len(adj) {
				t.Fatalf("n=%d: %s decoded %d entries", n, name, len(got))
			}
			for i := range adj {
				if got[i] != adj[i] {
					t.Fatalf("n=%d: %s entry %d = %d, want %d", n, name, i, got[i], adj[i])
				}
			}
		}
		if (len(c.Skips) > 0) != (n > SkipInterval) || len(payload) > 5*n+skipTableBytes(n) {
			t.Fatalf("n=%d: skip table presence = %v, %d payload bytes", n, len(c.Skips) > 0, len(payload))
		}
		// The count below a vertex, taken while decoding, is its insertion
		// point: the forward split of a list that does not hold it.
		top := 0
		if n > 0 {
			top = int(adj[n-1])
		}
		for _, v := range []VertexID{0, VertexID(rng.Intn(top + 1)), VertexID(top + 1)} {
			_, below, err := DecodeCompressed(nil, payload, n, withSkips, v)
			if want, _ := slices.BinarySearch(adj, v); err != nil || below != want {
				t.Fatalf("n=%d: %d entries below %d (err %v), want %d", n, below, v, err, want)
			}
		}
	}
}

func TestCompressedSeekGE(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	adj := sortedRandom(rng, 500, 5000)
	c := mustParse(t, adj)
	for trial := 0; trial < 2000; trial++ {
		target := VertexID(rng.Intn(5200))
		cu := c.Cursor()
		got, ok := cu.SeekGE(target)
		// Reference: first entry >= target.
		var want VertexID
		wantOK := false
		for _, v := range adj {
			if v >= target {
				want, wantOK = v, true
				break
			}
		}
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("SeekGE(%d) = (%d,%v), want (%d,%v)", target, got, ok, want, wantOK)
		}
	}
}

// TestCompressedSeekMonotone seeks repeatedly on one cursor with ascending
// targets — the access pattern of the skip-gallop kernel.
func TestCompressedSeekMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	adj := sortedRandom(rng, 800, 8000)
	probes := sortedRandom(rng, 200, 8200)
	c := mustParse(t, adj)
	cu := c.Cursor()
	for _, target := range probes {
		got, ok := cu.SeekGE(target)
		// SeekGE does not consume, so with ascending targets the answer is
		// always the global first entry >= target.
		var want VertexID
		wantOK := false
		for _, v := range adj {
			if v >= target {
				want, wantOK = v, true
				break
			}
		}
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("SeekGE(%d) = (%d,%v), want (%d,%v)", target, got, ok, want, wantOK)
		}
	}
	if cu.SkipSeeks == 0 {
		t.Fatal("no skip seeks recorded on an 800-entry list")
	}
}

func TestParseCompressedRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	adj := sortedRandom(rng, 200, 4000)
	payload, withSkips := AppendCompressed(nil, adj)
	if !withSkips {
		t.Fatal("fixture should emit a skip table")
	}
	cases := []struct {
		name string
		mut  func(p []byte) []byte
	}{
		{"truncated", func(p []byte) []byte { return p[:len(p)-1] }},
		{"trailing", func(p []byte) []byte { return append(p, 0) }},
		{"skip-count", func(p []byte) []byte { p[0]++; return p }},
		{"skip-value", func(p []byte) []byte { p[2]++; return p }},
		{"skip-offset", func(p []byte) []byte { p[6]++; return p }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mut(append([]byte(nil), payload...))
			if _, err := ParseCompressed(mut, len(adj), true); err == nil {
				t.Fatal("corrupt payload accepted")
			}
			if _, _, err := DecodeCompressed(nil, mut, len(adj), true, 0); err == nil {
				t.Fatal("corrupt payload decoded")
			}
		})
	}
	if _, err := ParseCompressed(payload, len(adj)+1, true); err == nil {
		t.Fatal("wrong count accepted")
	}
	for _, p := range [][]byte{{0x80}, {1, 1}} { // without a skip table: a truncated varint, a trailing byte
		if _, err := ParseCompressed(p, 1, false); err == nil {
			t.Fatalf("payload %v of one entry accepted", p)
		}
	}
	short := sortedRandom(rng, 5, 100)
	shortPayload, _ := AppendCompressed(nil, short)
	if _, err := ParseCompressed(shortPayload, len(short), true); err == nil {
		t.Fatal("skip flag on short list accepted")
	}
}

func TestIntersectCompressedMatchesDecoded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []struct{ na, nc int }{
		{0, 100}, {100, 0}, {50, 60}, {4, 2000}, {2000, 4}, {300, 300}, {1, 40}, {33, 33},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 20; trial++ {
			span := 4 * (sh.na + sh.nc + 1)
			a := sortedRandom(rng, sh.na, span)
			cadj := sortedRandom(rng, sh.nc, span)
			c := mustParse(t, cadj)
			var stats IntersectStats
			got := IntersectCompressed(a, c, nil, &stats)
			want := IntersectSortedLinear(a, cadj, nil)
			if len(got) != len(want) {
				t.Fatalf("na=%d nc=%d: %d results, want %d", sh.na, sh.nc, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("na=%d nc=%d: result %d = %d, want %d", sh.na, sh.nc, i, got[i], want[i])
				}
			}
			if sh.na > 0 && sh.nc > 0 && stats.Compressed != 1 {
				t.Fatalf("na=%d nc=%d: Compressed=%d, want 1", sh.na, sh.nc, stats.Compressed)
			}
		}
	}
}

// TestIntersectCompressedClippedOperand: a clipped suffix against a long span
// — the operand order bounds leave — takes the linear-merge arm (the lengths
// are within the gallop ratio) and must enter the span through the skip
// table at the block a[0] falls in, not decode from the first entry.
func TestIntersectCompressedClippedOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cadj := sortedRandom(rng, 1000, 4000)
	c := mustParse(t, cadj)
	whole := sortedRandom(rng, 1500, 4000)
	for _, from := range []VertexID{0, 1000, 3000, 3999, 4000} {
		i := 0
		for i < len(whole) && whole[i] < from {
			i++
		}
		a := whole[i:]
		var stats IntersectStats
		got := IntersectCompressed(a, c, nil, &stats)
		want := IntersectSortedLinear(a, cadj, nil)
		if len(got) != len(want) {
			t.Fatalf("a from %d: %d results, want %d", from, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("a from %d: result %d = %d, want %d", from, j, got[j], want[j])
			}
		}
		if linear := len(a) > 0 && c.Count < gallopRatio*len(a); linear && from >= 1000 && (stats.Linear != 1 || stats.SkipSeeks == 0) {
			t.Errorf("a from %d (%d entries): Linear=%d SkipSeeks=%d, want the merge to seek to its start",
				from, len(a), stats.Linear, stats.SkipSeeks)
		}
	}
}

// TestIntersectCompressedInPlace verifies the documented dst=a[:0] aliasing
// contract across all three dispatch arms.
func TestIntersectCompressedInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, sh := range []struct{ na, nc int }{{4, 2000}, {2000, 4}, {300, 300}} {
		a := sortedRandom(rng, sh.na, 3*(sh.na+sh.nc))
		cadj := sortedRandom(rng, sh.nc, 3*(sh.na+sh.nc))
		c := mustParse(t, cadj)
		want := IntersectSortedLinear(a, cadj, nil)
		got := IntersectCompressed(a, c, a[:0], nil)
		if len(got) != len(want) {
			t.Fatalf("na=%d nc=%d: in-place %d results, want %d", sh.na, sh.nc, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("na=%d nc=%d: in-place result %d = %d, want %d", sh.na, sh.nc, i, got[i], want[i])
			}
		}
	}
}

func TestMaxCompressedEntriesMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// A random list, and one whose fourth entry takes a two-byte varint.
	for _, adj := range [][]VertexID{sortedRandom(rng, 400, 8000), {1, 2, 3, 300, 301}} {
		for _, maxBytes := range []int{0, 1, 3, 4, 5, 10, 40, 100, 300, 1000, 1 << 16} {
			n, bytes := MaxCompressedEntries(adj, maxBytes)
			payload, _ := AppendCompressed(nil, adj[:n])
			if len(payload) != bytes {
				t.Fatalf("%d entries, maxBytes=%d: reported %d bytes, encoder wrote %d", len(adj), maxBytes, bytes, len(payload))
			}
			if bytes > maxBytes {
				t.Fatalf("%d entries, maxBytes=%d: %d entries need %d bytes", len(adj), maxBytes, n, bytes)
			}
			if n < len(adj) {
				more, _ := AppendCompressed(nil, adj[:n+1])
				if len(more) <= maxBytes {
					t.Fatalf("%d entries, maxBytes=%d: splitter stopped at %d but %d fits in %d bytes", len(adj), maxBytes, n, n+1, len(more))
				}
			}
		}
	}
}

// BenchmarkIntersectCompressed: a 64-entry list against a 65536-entry hub
// stored delta+varint compressed. "decode-then-intersect" is the engine's
// path: the validating walk decodes the hub (as a page parse does), then the
// plain adaptive kernel runs; "compressed-domain" gallops over the encoded
// bytes via the skip table and never materializes the list. Neither may
// allocate per intersection.
func BenchmarkIntersectCompressed(b *testing.B) {
	small := make([]VertexID, 64)
	for i := range small {
		small[i] = VertexID(i * 2048)
		if i%3 == 0 {
			small[i]++ // odd: a miss
		}
	}
	large := make([]VertexID, 65536)
	for i := range large {
		large[i] = VertexID(2 * i)
	}
	payload, hasSkips := AppendCompressed(nil, large)
	comp, err := ParseCompressed(payload, len(large), hasSkips)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]VertexID, 0, len(small))
	b.Run("decode-then-intersect", func(b *testing.B) {
		b.ReportAllocs()
		scratch := make([]VertexID, 0, len(large))
		for i := 0; i < b.N; i++ {
			if scratch, _, err = DecodeCompressed(scratch[:0], payload, len(large), hasSkips, 0); err != nil {
				b.Fatal(err)
			}
			dst = IntersectSorted(small, scratch, dst[:0])
		}
		if len(dst) == 0 {
			b.Fatal("empty intersection; fixture broken")
		}
	})
	b.Run("compressed-domain", func(b *testing.B) {
		b.ReportAllocs()
		var st IntersectStats
		for i := 0; i < b.N; i++ {
			dst = IntersectCompressed(small, comp, dst[:0], &st)
		}
		if len(dst) == 0 {
			b.Fatal("empty intersection; fixture broken")
		}
	})
}
