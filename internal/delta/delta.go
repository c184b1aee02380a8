// Package delta is the live-ingest overlay: an in-memory, versioned set of
// edge insertions and deletions layered over the write-once page file. The
// base file stays the DUALSIM builder's external-sorted layout; mutations
// accumulate here as per-vertex sorted add/tombstone lists, and enumeration
// merges them with the base adjacency at window-load time. A background
// compactor periodically folds the overlay into a fresh page file and the
// overlay drains back toward empty.
//
// Concurrency model: the Store serializes writers under a mutex and
// publishes an immutable Snapshot behind an atomic pointer. Readers
// (query admission, window load) grab one Snapshot and see a frozen view
// for the whole run — a query never observes half a batch. Every applied
// batch bumps the data epoch, a monotone uint64 that names graph versions:
// resume tokens and cached plans are valid only at the epoch they were
// minted at.
//
// Representation: the vertex set is fixed (NewStore(numVertices, …)), so a
// Snapshot is an array indexed by vertex ID, cut into fixed-size chunks
// behind a chunk table. A lookup is two index operations, and successive
// snapshots share every chunk a batch did not write: a batch copies the
// chunk table (numVertices / chunkSize pointers), the chunks its ops touch
// and the Add/Del lists it changes — nothing that grows with the overlay's
// width.
package delta

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dualsim/internal/graph"
)

// Op is one edge mutation: an undirected edge (U, V) inserted or deleted.
type Op struct {
	// Insert is true for an edge insertion, false for a deletion.
	Insert bool
	// U and V are the edge endpoints; both must name existing vertices
	// (the vertex set is fixed until a rebuild) and U != V.
	U, V graph.VertexID
}

// VertexDelta is the overlay for one vertex: neighbors added and neighbors
// tombstoned, each a sorted duplicate-free set. The two sets are disjoint —
// applying an insert removes any tombstone for that neighbor and vice
// versa, so the last operation on an edge wins.
type VertexDelta struct {
	// Add lists neighbors the overlay adds to the base adjacency.
	Add []graph.VertexID
	// Del lists neighbors the overlay tombstones out of the base
	// adjacency.
	Del []graph.VertexID
}

// chunkSize is the number of consecutive vertex IDs one copy-on-write chunk
// covers: small enough that a batch of 50 scattered ops copies tens of
// kilobytes at most (a 256-byte chunk per touched vertex), large enough that
// the chunk table, copied whole per batch, is 1/32 of the vertex count.
// Measured on 10 000 vertices, a 50-op batch costs 25–30 µs on an empty
// store at 64 per chunk and 16–17 µs at 32 or 16.
const (
	chunkShift = 5
	chunkSize  = 1 << chunkShift
)

// chunk holds the overlays of chunkSize consecutive vertices, nil where
// unmutated. Published chunks are immutable.
type chunk [chunkSize]*VertexDelta

// Snapshot is an immutable point-in-time view of the overlay. It is safe
// for concurrent use by any number of readers and stays valid (and
// unchanged) after later batches are applied to the Store.
type Snapshot struct {
	epoch uint64
	// chunks[v>>chunkShift][v%chunkSize] is v's overlay; a nil chunk holds
	// no mutated vertex.
	chunks []*chunk
	verts  int // mutated vertices
	adds   uint64
	dels   uint64
}

// emptySnapshot is the overlay-free view of a graph of numVertices vertices.
func emptySnapshot(numVertices int, epoch uint64) *Snapshot {
	return &Snapshot{epoch: epoch, chunks: make([]*chunk, (numVertices+chunkSize-1)>>chunkShift)}
}

// Epoch returns the data epoch this snapshot observes.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Empty reports whether the snapshot carries no mutations; enumeration
// over an empty snapshot is byte-for-byte the base-file read path.
func (s *Snapshot) Empty() bool { return s.verts == 0 }

// Len returns the number of vertices with a non-empty overlay.
func (s *Snapshot) Len() int { return s.verts }

// Adds returns the live inserted-edge-endpoint count (each undirected
// insert contributes two: one per endpoint).
func (s *Snapshot) Adds() uint64 { return s.adds }

// Dels returns the live tombstoned-edge-endpoint count.
func (s *Snapshot) Dels() uint64 { return s.dels }

// Of returns the overlay for v, or nil when v is unmutated. The returned
// value and its slices are shared and must not be modified.
func (s *Snapshot) Of(v graph.VertexID) *VertexDelta {
	if i := int(v >> chunkShift); i < len(s.chunks) && s.chunks[i] != nil {
		return s.chunks[i][v%chunkSize]
	}
	return nil
}

// Vertices calls f for every mutated vertex, in ascending ID order. The
// VertexDelta is shared and must not be modified.
func (s *Snapshot) Vertices(f func(v graph.VertexID, d *VertexDelta)) {
	for i, c := range s.chunks {
		if c == nil {
			continue
		}
		for j, d := range c {
			if d != nil {
				f(graph.VertexID(i<<chunkShift+j), d)
			}
		}
	}
}

// Apply merges v's base adjacency with the overlay: (base ∪ Add) \ Del.
// base must be sorted ascending; the result is sorted ascending and never
// aliases base. For an unmutated vertex it returns base unchanged (no
// copy), so callers must treat the result as read-only.
func (s *Snapshot) Apply(v graph.VertexID, base []graph.VertexID) []graph.VertexID {
	d := s.Of(v)
	if d == nil {
		return base
	}
	return d.AppendMerged(make([]graph.VertexID, 0, len(base)+len(d.Add)), base)
}

// AppendMerged appends (base ∪ Add) \ Del to dst, ascending, in one linear
// pass over the three sorted lists, and returns the extended slice (the
// form a window load fills one slab per page through). base must be sorted
// ascending and is only read; dst[:len(dst)] is left as it was.
func (d *VertexDelta) AppendMerged(dst, base []graph.VertexID) []graph.VertexID {
	add, del := d.Add, d.Del
	for len(base) > 0 || len(add) > 0 {
		var w graph.VertexID
		switch {
		case len(add) == 0 || (len(base) > 0 && base[0] < add[0]):
			w, base = base[0], base[1:]
		case len(base) == 0 || add[0] < base[0]:
			w, add = add[0], add[1:]
		default: // in both: emitted once
			w, base, add = base[0], base[1:], add[1:]
		}
		for len(del) > 0 && del[0] < w {
			del = del[1:]
		}
		if len(del) == 0 || del[0] != w {
			dst = append(dst, w)
		}
	}
	return dst
}

// Degree returns the merged degree of v given its base degree — the length
// Apply would produce, without materializing the list. Exact only when the
// overlay's invariants hold against the base (Add disjoint from base, Del
// a subset of base ∪ Add), which Store.Apply cannot check; the engine uses
// it for budgeting, not correctness.
func (s *Snapshot) Degree(v graph.VertexID, baseDegree int) int {
	d := s.Of(v)
	if d == nil {
		return baseDegree
	}
	return baseDegree + len(d.Add) - len(d.Del)
}

// Store accumulates mutation batches and publishes immutable Snapshots.
// All methods are safe for concurrent use.
type Store struct {
	mu          sync.Mutex
	numVertices int
	cur         atomic.Pointer[Snapshot]

	batches  atomic.Uint64
	ops      atomic.Uint64
	rejected atomic.Uint64
	rebases  atomic.Uint64
}

// NewStore returns an empty store over a graph of numVertices vertices,
// starting at the given epoch (the base file's stamped epoch, so epochs
// never regress across restarts).
func NewStore(numVertices int, epoch uint64) *Store {
	st := &Store{numVertices: numVertices}
	st.cur.Store(emptySnapshot(numVertices, epoch))
	return st
}

// Snapshot returns the current immutable view.
func (st *Store) Snapshot() *Snapshot { return st.cur.Load() }

// Epoch returns the current data epoch.
func (st *Store) Epoch() uint64 { return st.cur.Load().epoch }

// Batches returns the number of successfully applied batches.
func (st *Store) Batches() uint64 { return st.batches.Load() }

// Ops returns the total mutation count across applied batches.
func (st *Store) Ops() uint64 { return st.ops.Load() }

// Rejected returns the number of batches rejected by validation.
func (st *Store) Rejected() uint64 { return st.rejected.Load() }

// Rebases returns the number of compaction drains applied via Rebase.
func (st *Store) Rebases() uint64 { return st.rebases.Load() }

// Validate checks a batch without applying it: every op must name two
// distinct in-range vertices.
func (st *Store) Validate(ops []Op) error {
	for i, op := range ops {
		if op.U == op.V {
			return fmt.Errorf("delta: op %d: self-loop on vertex %d", i, op.U)
		}
		if int(op.U) >= st.numVertices || int(op.V) >= st.numVertices {
			return fmt.Errorf("delta: op %d: vertex out of range [0,%d)", i, st.numVertices)
		}
	}
	return nil
}

// Apply validates and applies one atomic batch, publishing a new Snapshot
// with the epoch bumped by one. Within a batch, later ops win over earlier
// ops on the same edge; across batches, the overlay is idempotent set
// semantics (inserting a present edge or deleting an absent one is a
// no-op at read time). Returns the new epoch.
func (st *Store) Apply(ops []Op) (uint64, error) {
	if err := st.Validate(ops); err != nil {
		st.rejected.Add(1)
		return st.Epoch(), err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	old := st.cur.Load()
	next := &Snapshot{
		epoch:  old.epoch + 1,
		chunks: slices.Clone(old.chunks),
		verts:  old.verts,
		adds:   old.adds,
		dels:   old.dels,
	}
	for _, op := range ops {
		next.applyHalf(old, op.Insert, op.U, op.V)
		next.applyHalf(old, op.Insert, op.V, op.U)
	}
	st.cur.Store(next)
	st.batches.Add(1)
	st.ops.Add(uint64(len(ops)))
	return next.epoch, nil
}

// applyHalf records one direction of an undirected mutation on s, a
// snapshot under construction from old. Copy-on-write at two levels keeps
// published snapshots frozen: a chunk still shared with old is cloned on its
// first write, and a written VertexDelta is always a fresh value whose
// changed list is a fresh slice (insertSorted and removeSorted never write
// their input). Every op leaves w in one of v's two lists, so a written
// overlay is never empty: only Rebase drains vertices.
func (s *Snapshot) applyHalf(old *Snapshot, insert bool, v, w graph.VertexID) {
	i := v >> chunkShift
	switch c := s.chunks[i]; {
	case c == nil:
		s.chunks[i] = new(chunk)
	case c == old.chunks[i]:
		clone := *c
		s.chunks[i] = &clone
	}
	slot := &s.chunks[i][v%chunkSize]
	var d VertexDelta
	if *slot != nil {
		d = **slot
	} else {
		s.verts++
	}
	var removed, inserted bool
	if insert {
		d.Del, removed = removeSorted(d.Del, w)
		d.Add, inserted = insertSorted(d.Add, w)
		s.dels -= count(removed)
		s.adds += count(inserted)
	} else {
		d.Add, removed = removeSorted(d.Add, w)
		d.Del, inserted = insertSorted(d.Del, w)
		s.adds -= count(removed)
		s.dels += count(inserted)
	}
	*slot = &d
}

// count is 1 for true, 0 for false.
func count(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Rebase subtracts a compacted snapshot from the current overlay: every
// add and tombstone present in folded is now baked into the base file, so
// it leaves the live overlay. The epoch is unchanged — compaction rewrites
// the representation, not the data. Called by the compactor after the new
// base file is fully swapped in; mutations that arrived during compaction
// survive in the remaining overlay.
func (st *Store) Rebase(folded *Snapshot) {
	st.mu.Lock()
	defer st.mu.Unlock()
	old := st.cur.Load()
	next := emptySnapshot(st.numVertices, old.epoch)
	for i, c := range old.chunks {
		if c == nil {
			continue
		}
		var nc *chunk
		for j, d := range c {
			if d == nil {
				continue
			}
			if f := folded.Of(graph.VertexID(i<<chunkShift + j)); f != nil {
				d = &VertexDelta{
					Add: subtractSorted(d.Add, f.Add),
					Del: subtractSorted(d.Del, f.Del),
				}
				if len(d.Add) == 0 && len(d.Del) == 0 {
					continue
				}
			}
			if nc == nil {
				nc = new(chunk)
				next.chunks[i] = nc
			}
			nc[j] = d
			next.verts++
			next.adds += uint64(len(d.Add))
			next.dels += uint64(len(d.Del))
		}
	}
	st.cur.Store(next)
	st.rebases.Add(1)
}

// insertSorted returns the sorted set a with x in it, reporting whether x
// was absent (and therefore inserted). The input slice is never modified.
func insertSorted(a []graph.VertexID, x graph.VertexID) ([]graph.VertexID, bool) {
	i, found := slices.BinarySearch(a, x)
	if found {
		return a, false
	}
	return slices.Concat(a[:i], []graph.VertexID{x}, a[i:]), true
}

// removeSorted removes x from the sorted set a, reporting whether it was
// present. The input slice is never modified.
func removeSorted(a []graph.VertexID, x graph.VertexID) ([]graph.VertexID, bool) {
	i, found := slices.BinarySearch(a, x)
	if !found {
		return a, false
	}
	return slices.Concat(a[:i], a[i+1:]), true
}

// subtractSorted returns a \ b for sorted sets, never aliasing a.
func subtractSorted(a, b []graph.VertexID) []graph.VertexID {
	if len(a) == 0 {
		return nil
	}
	out := make([]graph.VertexID, 0, len(a))
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}
