package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dualsim/internal/graph"
)

func vs(xs ...int) []graph.VertexID {
	out := make([]graph.VertexID, len(xs))
	for i, x := range xs {
		out[i] = graph.VertexID(x)
	}
	return out
}

func TestApplyInsertDelete(t *testing.T) {
	st := NewStore(10, 0)
	if !st.Snapshot().Empty() || st.Epoch() != 0 {
		t.Fatalf("fresh store: empty=%v epoch=%d", st.Snapshot().Empty(), st.Epoch())
	}
	ep, err := st.Apply([]Op{{Insert: true, U: 1, V: 2}, {Insert: true, U: 1, V: 5}})
	if err != nil || ep != 1 {
		t.Fatalf("apply: epoch=%d err=%v", ep, err)
	}
	s := st.Snapshot()
	if got := s.Apply(1, vs(3)); !reflect.DeepEqual(got, vs(2, 3, 5)) {
		t.Fatalf("Apply(1, [3]) = %v, want [2 3 5]", got)
	}
	if got := s.Apply(2, vs(0, 9)); !reflect.DeepEqual(got, vs(0, 1, 9)) {
		t.Fatalf("Apply(2, [0 9]) = %v, want [0 1 9]", got)
	}
	// Unmutated vertex: base returned unchanged, no copy.
	base := vs(4, 6)
	if got := s.Apply(7, base); &got[0] != &base[0] {
		t.Fatal("Apply on unmutated vertex should return base unchanged")
	}

	ep, err = st.Apply([]Op{{Insert: false, U: 1, V: 2}, {Insert: false, U: 1, V: 3}})
	if err != nil || ep != 2 {
		t.Fatalf("apply deletes: epoch=%d err=%v", ep, err)
	}
	s2 := st.Snapshot()
	if got := s2.Apply(1, vs(2, 3)); !reflect.DeepEqual(got, vs(5)) {
		t.Fatalf("after deletes Apply(1, [2 3]) = %v, want [5]", got)
	}
	// The old snapshot is frozen: still sees the pre-delete view.
	if got := s.Apply(1, vs(3)); !reflect.DeepEqual(got, vs(2, 3, 5)) {
		t.Fatalf("old snapshot mutated: got %v", got)
	}
}

func TestApplyLastOpWinsAndReinsert(t *testing.T) {
	st := NewStore(8, 0)
	// Within one batch, later ops win.
	if _, err := st.Apply([]Op{
		{Insert: true, U: 0, V: 1},
		{Insert: false, U: 0, V: 1},
	}); err != nil {
		t.Fatal(err)
	}
	s := st.Snapshot()
	if d := s.Of(0); d == nil || len(d.Add) != 0 || !reflect.DeepEqual(d.Del, vs(1)) {
		t.Fatalf("insert-then-delete: %+v", d)
	}
	// Re-insert clears the tombstone.
	if _, err := st.Apply([]Op{{Insert: true, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	s = st.Snapshot()
	if d := s.Of(0); d == nil || !reflect.DeepEqual(d.Add, vs(1)) || len(d.Del) != 0 {
		t.Fatalf("re-insert: %+v", d)
	}
	if got := s.Apply(0, vs(3)); !reflect.DeepEqual(got, vs(1, 3)) {
		t.Fatalf("Apply = %v, want [1 3]", got)
	}
}

func TestValidateRejects(t *testing.T) {
	st := NewStore(4, 7)
	cases := [][]Op{
		{{Insert: true, U: 2, V: 2}},
		{{Insert: true, U: 0, V: 4}},
		{{Insert: false, U: 9, V: 1}},
	}
	for i, ops := range cases {
		if _, err := st.Apply(ops); err == nil {
			t.Fatalf("case %d: expected rejection", i)
		}
	}
	if st.Epoch() != 7 {
		t.Fatalf("rejected batches must not bump the epoch: %d", st.Epoch())
	}
	if st.Rejected() != 3 {
		t.Fatalf("rejected = %d, want 3", st.Rejected())
	}
}

func TestRebaseDrainsFolded(t *testing.T) {
	st := NewStore(16, 0)
	if _, err := st.Apply([]Op{{Insert: true, U: 1, V: 2}, {Insert: false, U: 3, V: 4}}); err != nil {
		t.Fatal(err)
	}
	folded := st.Snapshot() // compactor folds this view into a new file
	if _, err := st.Apply([]Op{{Insert: true, U: 5, V: 6}}); err != nil {
		t.Fatal(err) // arrives during compaction
	}
	st.Rebase(folded)
	s := st.Snapshot()
	if s.Epoch() != 2 {
		t.Fatalf("rebase must not change the epoch: %d", s.Epoch())
	}
	if s.Of(1) != nil || s.Of(3) != nil {
		t.Fatal("folded mutations must drain")
	}
	if d := s.Of(5); d == nil || !reflect.DeepEqual(d.Add, vs(6)) {
		t.Fatalf("mid-compaction mutation lost: %+v", d)
	}
	if st.Rebases() != 1 {
		t.Fatalf("rebases = %d", st.Rebases())
	}
}

func TestDegree(t *testing.T) {
	st := NewStore(8, 0)
	if _, err := st.Apply([]Op{
		{Insert: true, U: 0, V: 1},
		{Insert: true, U: 0, V: 2},
		{Insert: false, U: 0, V: 3},
	}); err != nil {
		t.Fatal(err)
	}
	s := st.Snapshot()
	if got := s.Degree(0, 5); got != 6 {
		t.Fatalf("Degree(0, 5) = %d, want 6", got)
	}
	if got := s.Degree(7, 5); got != 5 {
		t.Fatalf("Degree(7, 5) = %d, want 5", got)
	}
}

// TestRandomizedAgainstMap drives random batches through the store and an
// oracle adjacency-set map, checking Apply output after each batch.
func TestRandomizedAgainstMap(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewSource(41))
	oracleBase := map[graph.VertexID]map[graph.VertexID]bool{}
	for v := 0; v < n; v++ {
		oracleBase[graph.VertexID(v)] = map[graph.VertexID]bool{}
	}
	// A fixed pseudo-random base graph.
	for i := 0; i < 60; i++ {
		u := graph.VertexID(rng.Intn(n))
		w := graph.VertexID(rng.Intn(n))
		if u == w {
			continue
		}
		oracleBase[u][w] = true
		oracleBase[w][u] = true
	}
	baseAdj := func(v graph.VertexID) []graph.VertexID {
		var out []graph.VertexID
		for w := range oracleBase[v] {
			out = append(out, w)
		}
		sortIDs(out)
		return out
	}

	st := NewStore(n, 0)
	oracle := map[graph.VertexID]map[graph.VertexID]bool{}
	for v, m := range oracleBase {
		oracle[v] = map[graph.VertexID]bool{}
		for w := range m {
			oracle[v][w] = true
		}
	}
	for batch := 0; batch < 50; batch++ {
		ops := make([]Op, 1+rng.Intn(6))
		for i := range ops {
			u := graph.VertexID(rng.Intn(n))
			w := graph.VertexID((int(u) + 1 + rng.Intn(n-1)) % n)
			ops[i] = Op{Insert: rng.Intn(2) == 0, U: u, V: w}
			if ops[i].Insert {
				oracle[u][w] = true
				oracle[w][u] = true
			} else {
				delete(oracle[u], w)
				delete(oracle[w], u)
			}
		}
		if _, err := st.Apply(ops); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		s := st.Snapshot()
		for v := 0; v < n; v++ {
			vid := graph.VertexID(v)
			got := s.Apply(vid, baseAdj(vid))
			var want []graph.VertexID
			for w := range oracle[vid] {
				want = append(want, w)
			}
			sortIDs(want)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d vertex %d: got %v want %v", batch, v, got, want)
			}
		}
	}
}

func TestConcurrentApplySnapshot(t *testing.T) {
	st := NewStore(64, 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				u := graph.VertexID(rng.Intn(64))
				v := graph.VertexID((int(u) + 1 + rng.Intn(63)) % 64)
				if _, err := st.Apply([]Op{{Insert: rng.Intn(2) == 0, U: u, V: v}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			s := st.Snapshot()
			s.Vertices(func(v graph.VertexID, d *VertexDelta) {
				_ = s.Apply(v, nil)
			})
		}
	}()
	wg.Wait()
	if st.Epoch() != 800 {
		t.Fatalf("epoch = %d, want 800", st.Epoch())
	}
}

func sortIDs(a []graph.VertexID) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// randomSet returns a sorted duplicate-free set of up to maxLen IDs below n.
func randomSet(rng *rand.Rand, n, maxLen int) []graph.VertexID {
	in := map[graph.VertexID]bool{}
	for i := rng.Intn(maxLen + 1); i > 0; i-- {
		in[graph.VertexID(rng.Intn(n))] = true
	}
	out := make([]graph.VertexID, 0, len(in))
	for v := range in {
		out = append(out, v)
	}
	sortIDs(out)
	return out
}

// TestAppendMergedProperty checks the linear three-way merge against
// (base ∪ Add) \ Del computed through a set, on random sorted inputs where
// Add overlaps base and Del names IDs in base, in Add's gaps and in neither
// (the overlay cannot know the base, so all of these occur): the result
// never aliases base, base is not written, and the appending form leaves
// what dst already held untouched — including when dst has spare capacity.
func TestAppendMergedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(40)
		base := randomSet(rng, n, n)
		d := &VertexDelta{Add: randomSet(rng, n, n/2+1)}
		// Store.Apply keeps Add and Del disjoint; everything else is free.
		for _, w := range randomSet(rng, n, n/2+1) {
			if _, inAdd := slices.BinarySearch(d.Add, w); !inAdd {
				d.Del = append(d.Del, w)
			}
		}
		in := map[graph.VertexID]bool{}
		for _, w := range base {
			in[w] = true
		}
		for _, w := range d.Add {
			in[w] = true
		}
		for _, w := range d.Del {
			delete(in, w)
		}
		want := make([]graph.VertexID, 0, len(in))
		for w := range in {
			want = append(want, w)
		}
		sortIDs(want)

		baseCopy := slices.Clone(base)
		prefix := randomSet(rng, 1000, 5)
		dst := append(make([]graph.VertexID, 0, len(prefix)+rng.Intn(2*n+1)), prefix...)
		got := d.AppendMerged(dst, base)
		if !slices.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("iter %d: prefix %v became %v", iter, prefix, got[:len(prefix)])
		}
		if !slices.Equal(got[len(prefix):], want) {
			t.Fatalf("iter %d: base %v add %v del %v: merged %v, want %v", iter, base, d.Add, d.Del, got[len(prefix):], want)
		}
		if !slices.Equal(base, baseCopy) {
			t.Fatalf("iter %d: base written: %v, was %v", iter, base, baseCopy)
		}

		// Snapshot.Apply is the same merge into a fresh slice.
		s := emptySnapshot(1, 0)
		s.chunks[0] = &chunk{d}
		s.verts = 1
		applied := s.Apply(0, base)
		if !slices.Equal(applied, want) {
			t.Fatalf("iter %d: Apply = %v, want %v", iter, applied, want)
		}
		if len(applied) > 0 && len(base) > 0 {
			applied[0]++ // a write through the result must not reach base
			if !slices.Equal(base, baseCopy) {
				t.Fatalf("iter %d: Apply's result aliases base", iter)
			}
		}
	}
}

// modelOverlay is the overlay as the map-per-snapshot representation kept
// it: per vertex, the set of added and the set of tombstoned neighbours.
type modelOverlay map[graph.VertexID][2]map[graph.VertexID]bool

func (m modelOverlay) half(insert bool, v, w graph.VertexID) {
	if _, ok := m[v]; !ok {
		m[v] = [2]map[graph.VertexID]bool{{}, {}}
	}
	to, from := 0, 1
	if !insert {
		to, from = 1, 0
	}
	delete(m[v][from], w)
	m[v][to][w] = true
}

func (m modelOverlay) clone() modelOverlay {
	out := modelOverlay{}
	for v, d := range m {
		out[v] = [2]map[graph.VertexID]bool{{}, {}}
		for side := range d {
			for w := range d[side] {
				out[v][side][w] = true
			}
		}
	}
	return out
}

// check compares a snapshot with the model, field by field.
func (m modelOverlay) check(t *testing.T, what string, s *Snapshot) {
	t.Helper()
	var verts int
	var adds, dels uint64
	for v, d := range m {
		if len(d[0])+len(d[1]) == 0 {
			if s.Of(v) != nil {
				t.Fatalf("%s: vertex %d has an overlay %+v, the model none", what, v, s.Of(v))
			}
			continue
		}
		verts++
		adds += uint64(len(d[0]))
		dels += uint64(len(d[1]))
		got := s.Of(v)
		if got == nil {
			t.Fatalf("%s: vertex %d lost its overlay", what, v)
		}
		for side, list := range [2][]graph.VertexID{got.Add, got.Del} {
			if len(list) != len(d[side]) || !slices.IsSorted(list) {
				t.Fatalf("%s: vertex %d side %d = %v, model %v", what, v, side, list, d[side])
			}
			for _, w := range list {
				if !d[side][w] {
					t.Fatalf("%s: vertex %d side %d = %v, model %v", what, v, side, list, d[side])
				}
			}
		}
	}
	if s.Len() != verts || s.Adds() != adds || s.Dels() != dels || s.Empty() != (verts == 0) {
		t.Fatalf("%s: Len/Adds/Dels/Empty = %d/%d/%d/%v, model %d/%d/%d", what,
			s.Len(), s.Adds(), s.Dels(), s.Empty(), verts, adds, dels)
	}
	prev, seen := graph.VertexID(0), 0
	s.Vertices(func(v graph.VertexID, d *VertexDelta) {
		if seen > 0 && v <= prev {
			t.Fatalf("%s: Vertices visits %d after %d", what, v, prev)
		}
		if d != s.Of(v) {
			t.Fatalf("%s: Vertices hands out %p for %d, Of %p", what, d, v, s.Of(v))
		}
		prev, seen = v, seen+1
	})
	if seen != verts {
		t.Fatalf("%s: Vertices visited %d vertices, model %d", what, seen, verts)
	}
}

// TestSnapshotsFrozenAcrossBatches drives a random op stream — a vertex
// count that is not a multiple of the chunk size, batches that keep writing
// the same chunks, a Rebase every few batches — through the store and the
// model. Every snapshot ever published is re-checked against the model copy
// taken when it was current, after every later batch: copy-on-write at
// chunk granularity must leave it exactly as it was.
func TestSnapshotsFrozenAcrossBatches(t *testing.T) {
	const n = 3*chunkSize + 17
	rng := rand.New(rand.NewSource(131))
	st := NewStore(n, 7)
	model := modelOverlay{}
	type published struct {
		snap  *Snapshot
		model modelOverlay
	}
	history := []published{{st.Snapshot(), model.clone()}}
	for batch := 1; batch <= 120; batch++ {
		ops := make([]Op, 1+rng.Intn(8))
		for i := range ops {
			// Two of three ops land in chunk 1: shared chunks get rewritten.
			u := graph.VertexID(rng.Intn(n))
			if rng.Intn(3) > 0 {
				u = graph.VertexID(chunkSize + rng.Intn(chunkSize))
			}
			w := graph.VertexID((int(u) + 1 + rng.Intn(n-1)) % n)
			ops[i] = Op{Insert: rng.Intn(2) == 0, U: u, V: w}
			model.half(ops[i].Insert, u, w)
			model.half(ops[i].Insert, w, u)
		}
		ep, err := st.Apply(ops)
		if err != nil || ep != uint64(7+batch) {
			t.Fatalf("batch %d: epoch %d, err %v", batch, ep, err)
		}
		if batch%9 == 0 {
			// Compaction folded an earlier view: what it held leaves the overlay.
			folded := history[rng.Intn(len(history))]
			for v, d := range folded.model {
				for side := range d {
					for w := range d[side] {
						delete(model[v][side], w)
					}
				}
			}
			st.Rebase(folded.snap)
			if st.Epoch() != ep {
				t.Fatalf("batch %d: Rebase moved the epoch to %d", batch, st.Epoch())
			}
		}
		history = append(history, published{st.Snapshot(), model.clone()})
		for i, h := range history {
			h.model.check(t, fmt.Sprintf("after batch %d, snapshot %d", batch, i), h.snap)
		}
	}
}
