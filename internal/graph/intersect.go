package graph

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
//     the running intersection only ever shrinks.
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
