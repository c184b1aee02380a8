package graph

import (
	"math/bits"
	"math/rand"
	"testing"
)

// intersectRef is the obviously-correct reference: membership probing.
func intersectRef(a, b []VertexID) []VertexID {
	var out []VertexID
	for _, v := range a {
		if ContainsSorted(b, v) {
			out = append(out, v)
		}
	}
	return out
}

func vids(xs ...int) []VertexID {
	out := make([]VertexID, len(xs))
	for i, x := range xs {
		out[i] = VertexID(x)
	}
	return out
}

// seq returns [lo, lo+step, lo+2*step, ...) of length n.
func seq(lo, step, n int) []VertexID {
	out := make([]VertexID, n)
	for i := range out {
		out[i] = VertexID(lo + i*step)
	}
	return out
}

func equalVIDs(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// kernels under test: every pairwise intersection entry point must agree.
var kernels = []struct {
	name string
	fn   func(a, b, dst []VertexID) []VertexID
}{
	{"adaptive", IntersectSorted},
	{"linear", IntersectSortedLinear},
	{"gallop", IntersectSortedGallop},
	{"arena", func(a, b, dst []VertexID) []VertexID {
		return NewArena().Intersect(0, a, b)
	}},
	{"mark-probe", func(a, b, dst []VertexID) []VertexID {
		var mk Marks
		if !mk.Mark(a) { // a span past MarksCap: mark the other list
			a, b = b, a
			mk.Mark(a)
		}
		return markProbe(&mk, a, b)
	}},
}

// markProbe marks a in mk, which may hold another list, and probes b.
func markProbe(mk *Marks, a, b []VertexID) []VertexID {
	if !mk.Mark(a) {
		panic("span past MarksCap")
	}
	return mk.Probe(b, nil)
}

// marksHold reports whether mk's set bits are exactly list's.
func marksHold(mk *Marks, list []VertexID) bool {
	set := 0
	for _, w := range mk.words {
		set += bits.OnesCount64(w)
	}
	for _, v := range list {
		if i := v - mk.base; mk.words[i>>6]>>(i&63)&1 == 0 {
			return false
		}
	}
	return set == len(list)
}

// TestMarksRemark: marking a list clears the one marked before, whatever
// their spans — shorter, longer, disjoint, crossing word boundaries, at
// either end of the ID space, empty — so no old bit survives a re-mark or a
// Clear, and every probe agrees with the linear merge.
func TestMarksRemark(t *testing.T) {
	const top = ^VertexID(0)
	lists := []struct {
		name string
		list []VertexID
	}{
		{"word-boundaries", vids(63, 64, 127, 128, 191, 192, 200)},
		{"shorter", vids(64, 128)},
		{"longer", seq(1, 3, 400)},
		{"disjoint", seq(5000, 64, 40)},
		{"at-zero", vids(0, 1, 63, 65)},
		{"empty", nil},
		{"near-top", []VertexID{top - 130, top - 64, top - 63, top - 1, top}},
		{"one", vids(77)},
		{"full-top-word", seq(int(top-63), 1, 64)},
		{"at-zero-again", vids(0)},
	}
	probes := [][]VertexID{nil, vids(0), seq(0, 1, 300), seq(0, 7, 2000), seq(4990, 1, 2600),
		{top - 200, top - 130, top - 63, top - 62, top}, seq(int(top-100), 1, 101)}
	var mk Marks
	ar := NewArena()
	for _, l := range lists {
		if !mk.Mark(l.list) {
			t.Fatalf("%s: not marked", l.name)
		}
		if !marksHold(&mk, l.list) {
			t.Fatalf("%s: the bits are not the list's: an old bit survived the re-mark", l.name)
		}
		for i, b := range probes {
			want := IntersectSortedLinear(l.list, b, nil)
			if got := mk.Probe(b, nil); !equalVIDs(got, want) {
				t.Errorf("%s, probe %d: got %v, want %v", l.name, i, got, want)
			}
			// In place: the probe overwrites its input.
			in := append([]VertexID(nil), b...)
			if got := mk.Probe(in, in[:0]); !equalVIDs(got, want) {
				t.Errorf("%s, probe %d in place: got %v, want %v", l.name, i, got, want)
			}
			if got, ok := ar.Probe(0, &mk, l.list, b); ok && !equalVIDs(got, want) {
				t.Errorf("%s, probe %d in the arena: got %v, want %v", l.name, i, got, want)
			}
		}
		if !mk.Mark(l.list) || !marksHold(&mk, l.list) {
			t.Fatalf("%s: marking the marked list again changed it", l.name)
		}
	}
	mk.Clear()
	if !marksHold(&mk, nil) {
		t.Fatal("Clear left bits set")
	}
	// A span past the cap is refused and leaves the marks as they were.
	mk.Mark(vids(3, 9))
	if mk.Mark(vids(0, MarksCap*8)) || !marksHold(&mk, vids(3, 9)) {
		t.Fatal("a span past MarksCap was marked, or cleared the old marks")
	}
	if !mk.Mark(vids(0, MarksCap*8-1)) {
		t.Fatal("a span of exactly MarksCap bytes was refused")
	}
	// The arena probes only below probeRatio times the marked list.
	ar = NewArena()
	if _, ok := ar.Probe(0, &mk, vids(1, 2), seq(0, 1, 2*probeRatio)); ok || ar.Stats.Probe != 0 {
		t.Error("a list probeRatio times the marked one was probed")
	}
	if _, ok := ar.Probe(0, &mk, vids(1, 2), seq(0, 1, 2*probeRatio-1)); !ok || ar.Stats.Probe != 1 {
		t.Error("a list under probeRatio times the marked one was not probed")
	}
}

func TestIntersectKernelsTable(t *testing.T) {
	big := seq(0, 2, 1<<20) // 0,2,4,... one million evens
	cases := []struct {
		name string
		a, b []VertexID
	}{
		{"both-empty", nil, nil},
		{"left-empty", nil, vids(1, 2, 3)},
		{"right-empty", vids(1, 2, 3), nil},
		{"no-overlap", vids(1, 3, 5), vids(2, 4, 6)},
		{"full-overlap", vids(2, 4, 6), vids(2, 4, 6)},
		{"subset", vids(4, 8), vids(2, 4, 6, 8, 10)},
		{"ends-only", vids(0, 99), append(vids(0), append(seq(10, 1, 50), 99)...)},
		{"one-vs-million-hit", vids(1 << 19), big},
		{"one-vs-million-miss", vids(1<<19 + 1), big},
		{"few-vs-million-skew", vids(0, 7, 1<<10, 1<<10+1, 1<<20-2), big},
		{"adjacent-runs", seq(100, 1, 64), seq(132, 1, 64)},
	}
	for _, tc := range cases {
		want := intersectRef(tc.a, tc.b)
		for _, k := range kernels {
			got := k.fn(tc.a, tc.b, nil)
			if !equalVIDs(got, want) {
				t.Errorf("%s/%s = %v, want %v", tc.name, k.name, got, want)
			}
			// Symmetry: intersection is order-insensitive in its inputs.
			if got := k.fn(tc.b, tc.a, nil); !equalVIDs(got, want) {
				t.Errorf("%s/%s swapped = %v, want %v", tc.name, k.name, got, want)
			}
			// Duplicate-free invariant: inputs are strictly increasing, so
			// the result must be too.
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Errorf("%s/%s result not strictly increasing at %d: %v", tc.name, k.name, i, got)
				}
			}
		}
	}
}

// TestIntersectDstReuse pins the documented backing-array contract: when
// dst has capacity for the result, the returned slice shares dst's array.
func TestIntersectDstReuse(t *testing.T) {
	a, b := seq(0, 2, 100), seq(0, 3, 100)
	for _, k := range kernels[:3] { // arena manages its own buffers
		dst := make([]VertexID, 0, 256)
		got := k.fn(a, b, dst)
		if len(got) == 0 {
			t.Fatalf("%s: expected non-empty intersection", k.name)
		}
		if &got[0] != &dst[:1][0] {
			t.Errorf("%s: result does not reuse dst's backing array", k.name)
		}
	}
}

// TestIntersectAliasing pins the documented aliasing contract: dst may share
// a backing array with either input, including the in-place a[:0] form.
func TestIntersectAliasing(t *testing.T) {
	mk := func() ([]VertexID, []VertexID) {
		return seq(0, 2, 400), seq(0, 5, 4000) // skewed enough to gallop
	}
	for _, k := range kernels[:3] {
		a, b := mk()
		want := intersectRef(a, b)
		if got := k.fn(a, b, a[:0]); !equalVIDs(got, want) {
			t.Errorf("%s: dst aliasing a: got %d elems, want %d", k.name, len(got), len(want))
		}
		a, b = mk()
		if got := k.fn(a, b, b[:0]); !equalVIDs(got, want) {
			t.Errorf("%s: dst aliasing b: got %d elems, want %d", k.name, len(got), len(want))
		}
	}
}

func TestIntersectKSmallestFirst(t *testing.T) {
	ar := NewArena()
	cases := []struct {
		name  string
		lists [][]VertexID
	}{
		{"empty", nil},
		{"single", [][]VertexID{seq(0, 1, 5)}},
		{"pair", [][]VertexID{seq(0, 2, 50), seq(0, 3, 50)}},
		{"triple", [][]VertexID{seq(0, 2, 500), seq(0, 3, 300), seq(0, 5, 100)}},
		{"triple-empty-result", [][]VertexID{vids(1), vids(2), seq(0, 1, 100)}},
		{"skewed-4way", [][]VertexID{seq(0, 6, 10000), vids(0, 6, 12, 30), seq(0, 2, 30000), seq(0, 3, 20000)}},
		{"with-empty-list", [][]VertexID{seq(0, 1, 10), nil, seq(0, 2, 10)}},
	}
	for _, tc := range cases {
		var want []VertexID
		if len(tc.lists) > 0 {
			want = append([]VertexID(nil), tc.lists[0]...)
			for _, l := range tc.lists[1:] {
				want = intersectRef(want, l)
			}
		}
		lists := make([][]VertexID, len(tc.lists))
		copy(lists, tc.lists)
		got := ar.IntersectK(0, lists)
		if !equalVIDs(got, want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, want)
		}
	}
	if ar.Stats.KWay == 0 {
		t.Error("expected k-way kernel selections to be counted")
	}
	st := ar.TakeStats()
	if st.KWay == 0 || (ar.Stats != IntersectStats{}) {
		t.Errorf("TakeStats: got %+v, residual %+v", st, ar.Stats)
	}
}

// TestIntersectKDepthIsolation pins the depth-indexed scratch contract:
// a result at depth d survives IntersectK calls at other depths.
func TestIntersectKDepthIsolation(t *testing.T) {
	ar := NewArena()
	outer := ar.IntersectK(0, [][]VertexID{seq(0, 2, 100), seq(0, 3, 100)})
	snapshot := append([]VertexID(nil), outer...)
	for i := 0; i < 10; i++ {
		ar.IntersectK(1, [][]VertexID{seq(i, 1, 1000), seq(0, 2, 1000)})
	}
	if !equalVIDs(outer, snapshot) {
		t.Fatal("depth-0 result clobbered by depth-1 intersections")
	}
}

func TestArenaLists(t *testing.T) {
	ar := NewArena()
	l3 := ar.Lists(0, 3)
	if len(l3) != 0 || cap(l3) < 3 {
		t.Fatalf("Lists(0,3): len %d cap %d, want len 0 cap >= 3", len(l3), cap(l3))
	}
	l3 = append(l3, vids(1), vids(2), vids(3))
	l2 := ar.Lists(0, 2)
	if len(l2) != 0 || cap(l2) < 2 {
		t.Fatalf("Lists(0,2): len %d cap %d, want len 0 cap >= 2", len(l2), cap(l2))
	}
	if cap(l2) < 3 {
		t.Fatal("Lists did not reuse the grown buffer")
	}
}

// randSorted builds a strictly increasing random list.
func randSorted(rng *rand.Rand, n, space int) []VertexID {
	seen := make(map[int]bool, n)
	for len(seen) < n {
		seen[rng.Intn(space)] = true
	}
	out := make([]VertexID, 0, n)
	for v := range seen {
		out = append(out, VertexID(v))
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestIntersectRandomizedCross cross-checks every kernel against the linear
// merge over randomized skews (the deterministic sibling of FuzzIntersect).
func TestIntersectRandomizedCross(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ar := NewArena()
	var mk Marks
	for trial := 0; trial < 300; trial++ {
		na, nb := rng.Intn(200), rng.Intn(200)
		if trial%3 == 0 { // force heavy skew a third of the time
			nb = 1 + rng.Intn(5000)
			na = rng.Intn(4)
		}
		space := 1 + rng.Intn(6000)
		if space < na {
			space = na
		}
		if space < nb {
			space = nb
		}
		a, b := randSorted(rng, na, space), randSorted(rng, nb, space)
		want := IntersectSortedLinear(a, b, nil)
		for _, k := range kernels[1:] {
			if got := k.fn(a, b, nil); !equalVIDs(got, want) {
				t.Fatalf("trial %d: %s disagrees with linear: got %v, want %v (a=%v b=%v)",
					trial, k.name, got, want, a, b)
			}
		}
		if got := ar.IntersectK(trial%4, [][]VertexID{a, b}); !equalVIDs(got, want) {
			t.Fatalf("trial %d: IntersectK disagrees with linear", trial)
		}
		// One bit set re-marked trial after trial, each list marked in turn.
		if got := markProbe(&mk, a, b); !equalVIDs(got, want) {
			t.Fatalf("trial %d: probing b against a disagrees with linear: got %v, want %v", trial, got, want)
		}
		if got := markProbe(&mk, b, a); !equalVIDs(got, want) {
			t.Fatalf("trial %d: probing a against b disagrees with linear: got %v, want %v", trial, got, want)
		}
	}
}

// FuzzIntersectKernels feeds arbitrary byte strings decoded into sorted
// lists through the galloping, adaptive and mark/probe kernels and requires
// exact agreement with the linear merge (the seed-era reference kernel). The
// mark/probe kernel also sees both lists moved to the top of the ID space,
// re-marked in the bit set the low lists used.
func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0, 0, 0, 9})
	f.Add([]byte{255, 1}, []byte{1})
	f.Add([]byte{7}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	decode := func(raw []byte) []VertexID {
		// Interpret bytes as positive deltas, yielding a strictly
		// increasing duplicate-free list.
		out := make([]VertexID, 0, len(raw))
		cur := VertexID(0)
		for _, d := range raw {
			cur += VertexID(d) + 1
			out = append(out, cur)
		}
		return out
	}
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a, b := decode(rawA), decode(rawB)
		want := IntersectSortedLinear(a, b, nil)
		if got := IntersectSortedGallop(a, b, nil); !equalVIDs(got, want) {
			t.Fatalf("gallop: got %v, want %v (a=%v b=%v)", got, want, a, b)
		}
		if got := IntersectSorted(a, b, nil); !equalVIDs(got, want) {
			t.Fatalf("adaptive: got %v, want %v (a=%v b=%v)", got, want, a, b)
		}
		if got := NewArena().IntersectK(0, [][]VertexID{a, b}); !equalVIDs(got, want) {
			t.Fatalf("arena k-way: got %v, want %v (a=%v b=%v)", got, want, a, b)
		}
		var mk Marks
		if got := markProbe(&mk, a, b); !equalVIDs(got, want) {
			t.Fatalf("mark/probe: got %v, want %v (a=%v b=%v)", got, want, a, b)
		}
		// The largest ID either list holds moves to 2^32−1.
		var last VertexID
		for _, l := range [][]VertexID{a, b} {
			if len(l) > 0 {
				last = max(last, l[len(l)-1])
			}
		}
		up := func(l []VertexID) []VertexID {
			out := make([]VertexID, len(l))
			for i, v := range l {
				out[i] = v + (^VertexID(0) - last)
			}
			return out
		}
		ua, ub := up(a), up(b)
		if got := markProbe(&mk, ub, ua); !equalVIDs(got, up(want)) {
			t.Fatalf("mark/probe at the top: got %v, want %v (a=%v b=%v)", got, up(want), ua, ub)
		}
		if !marksHold(&mk, ub) {
			t.Fatalf("re-marking left a bit of %v set", a)
		}
	})
}
