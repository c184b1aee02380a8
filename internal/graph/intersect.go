package graph

import "slices"

// Adaptive sorted-set intersection kernels.
//
// Ivory query vertices (paper §3, Definition 7) are matched by intersecting
// the adjacency lists of their m >= 2 red neighbors — the paper's "no I/O"
// matching (§5.2). In a power-law data graph those lists are wildly skewed:
// a hub adjacency list is thousands of entries while its neighbor's is a
// handful. A plain linear merge pays O(|a|+|b|) regardless, so the kernels
// below adapt:
//
//   - linear merge when the lists are comparable in length,
//   - galloping (exponential probe + binary search) when one list is at
//     least gallopRatio times longer — O(|small| * log(|large|/|small|)),
//   - smallest-first progressive k-way intersection for m >= 3 lists, so
//     the running intersection only ever shrinks,
//   - mark and probe (Marks, Arena.Probe) when one operand is shared by
//     many sibling intersections: it is marked once in a bit set over its
//     ID span, and each sibling's list is probed against the bits without
//     a data-dependent branch — O(|probed|) per sibling, where the merge
//     re-walks the shared list every time (Kimmig et al.'s marked
//     neighbourhoods). The caller picks it by length: a probed list
//     gallopRatio times the marked one gallops instead.
//
// The Arena gives each enumeration task reusable, depth-indexed scratch so
// the hot path performs no per-candidate allocation, and counts which
// kernel ran; the engine flushes those counts into its obs registry
// (dualsim_intersect_*_total).

// gallopRatio is the length skew at which IntersectSorted switches from the
// linear merge to the galloping kernel. Galloping costs ~2 log2(gap) probes
// per element of the small list versus gap comparisons for the merge, so the
// crossover sits around 8–32; 16 is a safe middle on Go slices.
const gallopRatio = 16

// IntersectSorted writes the intersection of two sorted duplicate-free
// vertex slices into dst and returns it. This is the ivory-vertex candidate
// computation of the paper (§5.2): the candidates for an ivory query vertex
// are the intersection of its red neighbors' adjacency lists.
//
// The kernel is chosen adaptively: a linear merge when len(a) and len(b) are
// within gallopRatio of each other, a galloping search of the longer list
// otherwise. Use IntersectSortedLinear or IntersectSortedGallop to force a
// specific kernel (ablations and the fuzz cross-check).
//
// dst may be nil; the result reuses dst's backing array when its capacity
// suffices (append semantics — a larger result allocates). dst may alias a
// or b: both kernels write position k of the result only after every read of
// a and b at indexes < the current probe positions, and k never exceeds
// either probe position, so writing through an aliased backing array is
// safe. In particular IntersectSorted(a, b, a[:0]) is valid and intersects
// in place.
func IntersectSorted(a, b []VertexID, dst []VertexID) []VertexID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopRatio*len(a) {
		return IntersectSortedGallop(a, b, dst)
	}
	return IntersectSortedLinear(a, b, dst)
}

// IntersectSortedLinear is the plain two-pointer merge intersection —
// O(len(a)+len(b)), the seed-era kernel kept as the baseline and as the
// fuzzing reference. Aliasing and backing-array semantics are those of
// IntersectSorted.
func IntersectSortedLinear(a, b []VertexID, dst []VertexID) []VertexID {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// IntersectSortedGallop intersects by iterating the shorter list and
// galloping (doubling probe, then binary search) through the longer one —
// O(len(small) * log(len(large)/len(small))), the right kernel when one
// adjacency list belongs to a hub and the other to a low-degree vertex.
// Aliasing and backing-array semantics are those of IntersectSorted.
func IntersectSortedGallop(a, b []VertexID, dst []VertexID) []VertexID {
	if len(a) > len(b) {
		a, b = b, a
	}
	dst = dst[:0]
	lo := 0
	for _, v := range a {
		// Gallop: find the probe window [lo+step/2, lo+step] containing v.
		step := 1
		for lo+step < len(b) && b[lo+step] < v {
			step <<= 1
		}
		hi := min(lo+step, len(b))
		// Binary search within the window.
		i, j := lo, hi
		for i < j {
			m := int(uint(i+j) >> 1)
			if b[m] < v {
				i = m + 1
			} else {
				j = m
			}
		}
		if i == len(b) {
			break
		}
		lo = i
		if b[i] == v {
			dst = append(dst, v)
			lo = i + 1
			if lo == len(b) {
				break
			}
		}
	}
	return dst
}

// IntersectStats counts kernel selections made through an Arena. The engine
// flushes these per enumeration task into its metrics registry, exposing the
// adaptive choice as dualsim_intersect_{linear,gallop,kway}_total.
type IntersectStats struct {
	// Linear counts pairwise intersections run on the two-pointer merge.
	Linear uint64
	// Gallop counts pairwise intersections run on the galloping kernel
	// (picked when the longer list is >= gallopRatio times the shorter).
	Gallop uint64
	// KWay counts k-way (>= 3 list) intersections; their internal pairwise
	// steps are also counted in Linear/Gallop.
	KWay uint64
	// Probe counts lists probed against a Marks bit set (Arena.Probe).
	Probe uint64
	// Compressed counts intersections that consumed a compressed operand
	// without full decode (IntersectCompressed); the kernel
	// they dispatched to is also counted in Linear/Gallop.
	Compressed uint64
	// SkipSeeks counts skip-table-guided cursor jumps inside compressed
	// intersections — block decodes avoided by the skip pointers.
	SkipSeeks uint64
}

// Add accumulates o into s.
func (s *IntersectStats) Add(o IntersectStats) {
	s.Linear += o.Linear
	s.Gallop += o.Gallop
	s.KWay += o.KWay
	s.Probe += o.Probe
	s.Compressed += o.Compressed
	s.SkipSeeks += o.SkipSeeks
}

// Arena is reusable intersection scratch for one enumeration task. Matching
// recurses (red levels, then non-red vertices), and a materialized candidate
// list must stay valid while deeper frames intersect, so scratch is indexed
// by recursion depth: each depth owns a pair of ping-pong buffers and a list
// header slice, reused across every candidate visited at that depth. An
// Arena is not safe for concurrent use; pool one per worker task.
type Arena struct {
	levels []arenaLevel
	// Stats counts kernel selections since the last call to TakeStats.
	Stats IntersectStats
}

type arenaLevel struct {
	a, b  []VertexID
	lists [][]VertexID
}

// NewArena returns an empty arena; buffers grow on demand and are retained
// for reuse.
func NewArena() *Arena { return &Arena{} }

// TakeStats returns the kernel-selection counts accumulated since the last
// call and resets them — the flush half of per-task metric batching.
func (ar *Arena) TakeStats() IntersectStats {
	st := ar.Stats
	ar.Stats = IntersectStats{}
	return st
}

// level returns depth's scratch, growing the level table as needed.
func (ar *Arena) level(depth int) *arenaLevel {
	for len(ar.levels) <= depth {
		ar.levels = append(ar.levels, arenaLevel{})
	}
	return &ar.levels[depth]
}

// Lists returns a reusable zero-length header slice with capacity for at
// least n list slots, for gathering the inputs of IntersectK at the given
// recursion depth by appending. The returned slice is invalidated by the
// next Lists call at the same depth.
func (ar *Arena) Lists(depth, n int) [][]VertexID {
	lv := ar.level(depth)
	if cap(lv.lists) < n {
		lv.lists = make([][]VertexID, 0, n)
	}
	return lv.lists[:0]
}

// pair runs the adaptive pairwise kernel, recording the choice.
func (ar *Arena) pair(a, b, dst []VertexID) []VertexID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopRatio*len(a) {
		ar.Stats.Gallop++
		return IntersectSortedGallop(a, b, dst)
	}
	ar.Stats.Linear++
	return IntersectSortedLinear(a, b, dst)
}

// Intersect intersects two sorted lists into depth's scratch and returns the
// result, valid until the next Intersect/IntersectK at the same depth.
func (ar *Arena) Intersect(depth int, a, b []VertexID) []VertexID {
	lv := ar.level(depth)
	lv.a = ar.pair(a, b, lv.a)
	return lv.a
}

// IntersectK intersects k >= 1 sorted duplicate-free lists smallest-first:
// lists are ordered by length (cheapest first, so the running intersection
// is never larger than the smallest input), then folded pairwise with the
// adaptive kernel, early-exiting the moment the running result is empty.
// This is the paper's multi-way ivory candidate computation (§5.2) for
// ivory vertices with three or more red neighbors.
//
// The input slice may be reordered. The result lives in depth's scratch and
// is valid until the next Intersect/IntersectK at the same depth; the
// returned slice must not be modified.
func (ar *Arena) IntersectK(depth int, lists [][]VertexID) []VertexID {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	// Insertion sort by length — k is tiny (bounded by the query size).
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	if len(lists) >= 3 {
		ar.Stats.KWay++
	}
	lv := ar.level(depth)
	cur := ar.pair(lists[0], lists[1], lv.a)
	lv.a = cur
	out := lv.b
	for i := 2; i < len(lists) && len(cur) > 0; i++ {
		out = ar.pair(cur, lists[i], out)
		lv.a, lv.b = out, cur // ping-pong: keep both buffers owned by lv
		cur, out = out, cur
	}
	return cur
}

// probeRatio is the length skew past which a list is galloped through the
// shared operand rather than probed against its marks: probing costs one
// load per element of the probed list, galloping ~2 log2(gap) per element of
// the marked one, clipped — the same crossover as gallopRatio.
const probeRatio = gallopRatio

// Probe intersects the sorted duplicate-free list b with marked, the shared
// operand of b's siblings, through mk: it marks marked (nothing when it is
// the list marked already) and probes b against the bits, into depth's
// scratch, valid until the next Intersect/IntersectK/Probe at the same
// depth. b may be depth's last result: the probe writes it in place. It
// reports false and does nothing when b is probeRatio times marked or longer,
// or marked's span is past MarksCap: the caller intersects b with a pairwise
// kernel instead. The choice depends only on the lengths and the span.
func (ar *Arena) Probe(depth int, mk *Marks, marked, b []VertexID) ([]VertexID, bool) {
	if len(b) >= probeRatio*len(marked) || !mk.Mark(marked) {
		return nil, false
	}
	ar.Stats.Probe++
	lv := ar.level(depth)
	lv.a = mk.Probe(b, lv.a)
	return lv.a, true
}

// MarksCap is the most bytes a Marks spends on one list: a list whose ID span
// needs more bits (over 2^20 IDs) is not marked, and its intersections merge.
// It is one bit per vertex of a 2^20-vertex graph — no worse than the span of
// a hub there — and stays inside a core's L2 cache.
const MarksCap = 128 << 10

// Marks is a bit set over the ID span of one sorted list, the shared operand
// of sibling intersections: Mark sets its bits once, Probe reads them for
// each sibling list. It covers only the words from the list's first ID to its
// last and grows on demand up to MarksCap, so its memory follows the longest
// span marked, not the graph. The marked list is kept, not copied, and its
// bits are cleared by walking it: the caller must Clear (or mark another
// list) while the marked list's memory is still valid. A Marks is not safe
// for concurrent use; each enumeration task holds one.
type Marks struct {
	words []uint64
	base  VertexID   // ID of words[0]'s lowest bit, a multiple of 64
	list  []VertexID // the marked list; no bit is set outside it
}

// Mark marks list, a sorted duplicate-free list, clearing the list marked
// before. Marking the list already marked — the same memory, the same
// length — costs nothing. It reports false, leaving the old marks in place,
// when list's ID span needs more than MarksCap bytes.
func (mk *Marks) Mark(list []VertexID) bool {
	if len(list) == len(mk.list) && (len(list) == 0 || &list[0] == &mk.list[0]) {
		return true
	}
	if len(list) == 0 {
		mk.Clear()
		return true
	}
	base := list[0] &^ 63
	n := int((list[len(list)-1]-base)>>6) + 1
	if n*8 > MarksCap {
		return false
	}
	mk.Clear()
	if cap(mk.words) < n {
		// Doubling: a task that marks ever wider spans allocates a few times.
		mk.words = make([]uint64, max(n, min(2*cap(mk.words), MarksCap/8)))
	}
	mk.words, mk.base, mk.list = mk.words[:n], base, list
	for _, v := range list {
		i := v - base
		mk.words[i>>6] |= 1 << (i & 63)
	}
	return true
}

// Clear unmarks the marked list by walking it: no bit is left set.
func (mk *Marks) Clear() {
	for _, v := range mk.list {
		i := v - mk.base
		mk.words[i>>6] = 0
	}
	mk.list = nil
}

// Probe writes the members of the sorted duplicate-free list b that are
// marked into dst and returns it. Only b's part inside the marked list's
// first and last IDs is probed, each element by a load and a shift: the
// element is written unconditionally and the write position advances by its
// bit. Backing-array and aliasing semantics are those of IntersectSorted: dst
// may alias b, and Probe(b, b[:0]) probes in place.
func (mk *Marks) Probe(b, dst []VertexID) []VertexID {
	if len(mk.list) == 0 {
		return dst[:0]
	}
	lo, hi := mk.list[0], mk.list[len(mk.list)-1]
	if len(b) > 0 && b[0] < lo {
		i, _ := slices.BinarySearch(b, lo)
		b = b[i:]
	}
	dst = slices.Grow(dst[:0], len(b))[:len(b)]
	words, base, n := mk.words, mk.base, 0
	for _, v := range b {
		if v > hi { // b ascends: taken once
			break
		}
		i := v - base
		dst[n] = v
		n += int(words[i>>6] >> (i & 63) & 1)
	}
	return dst[:n]
}
