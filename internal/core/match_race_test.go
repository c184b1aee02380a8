package core

import (
	"sync"
	"testing"

	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// firstPages is a Database that answers only the directory lookup the
// window index starts from.
type firstPages struct {
	Database
	of map[graph.VertexID]storage.PageID
}

func (d firstPages) PageOf(v graph.VertexID) storage.PageID { return d.of[v] }

// adjOfData is the list matcher.resolve returns for v, without its split.
func (m *matcher) adjOfData(v graph.VertexID) []graph.VertexID {
	adj, _ := m.resolve(v)
	return adj
}

// TestAdjOfDataStreamPageContract pins the invariant a streamed last-level
// pass rests on: a page task (extMapPage sets own) runs while the rest of
// its pass is still landing, so it must read nothing of the pass but its own
// page — its records and their overlay-merged lists, complete before the
// task was queued — not even on a lookup miss, because the load callbacks of
// other pages are writing their ordinals of the index without any lock. The
// test runs such a writer and exercises every resolve path;
// consulting lw.loaded or lw.side from the page task fails under -race.
func TestAdjOfDataStreamPageContract(t *testing.T) {
	page := func(id storage.PageID, first graph.VertexID, adjs ...[]graph.VertexID) *storage.Page {
		w := storage.NewPageWriter(256, id)
		for i, adj := range adjs {
			w.Add(first+graph.VertexID(i), adj, false, false)
		}
		p := &storage.Page{}
		if err := storage.ParsePageInto(p, w.Bytes()); err != nil {
			t.Fatal(err)
		}
		return p
	}
	outer := &levelWindow{pages: []storage.PageID{0}, loaded: []windowPage{
		{page: page(0, 7, []graph.VertexID{1, 2})},
	}}
	// The task's own page: vertex 3 overlay-merged (one neighbour added),
	// vertex 4 tombstoned to empty, vertex 5 untouched.
	own := page(1, 3, []graph.VertexID{4, 5}, []graph.VertexID{6}, []graph.VertexID{3})
	lw := &levelWindow{pages: []storage.PageID{1, 2}, loaded: []windowPage{{page: own, lists: []slotList{
		{adj: []graph.VertexID{4, 5, 8}, set: true}, {set: true}, {},
	}}, {}}}
	db := firstPages{of: map[graph.VertexID]storage.PageID{7: 0, 3: 1, 4: 1, 5: 1, 9: 1, 42: 2}}
	r := &run{e: &Engine{db: db}, k: 2, winData: []*levelWindow{outer, lw}}
	m := &matcher{
		r:       r,
		lw:      lw,
		lastV:   9,
		lastAdj: []graph.VertexID{1},
		own:     &lw.loaded[0],
	}

	// The concurrent rest of the pass: another page's callback filling its
	// ordinal (and, for good measure, a side table no pass builds).
	other := page(2, 42, []graph.VertexID{8})
	done := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			lw.loaded[1] = windowPage{page: other}
			lw.side = []sideEntry{{v: 42, adj: []graph.VertexID{graph.VertexID(i)}}}
			if i == 0 {
				close(started)
			}
		}
	}()
	<-started // the writer is live: every lookup below overlaps its writes

	for i := 0; i < 20000; i++ {
		if adj := m.adjOfData(9); len(adj) != 1 {
			t.Fatalf("lastV lookup = %v", adj)
		}
		if adj := m.adjOfData(7); len(adj) != 2 {
			t.Fatalf("outer-window lookup = %v", adj)
		}
		if adj := m.adjOfData(3); len(adj) != 3 {
			t.Fatalf("own-page merged lookup = %v", adj)
		}
		if adj := m.adjOfData(4); len(adj) != 0 {
			t.Fatalf("own-page lookup of a vertex merged to empty = %v: fell through to the on-disk record", adj)
		}
		if adj := m.adjOfData(5); len(adj) != 1 {
			t.Fatalf("own-page unmerged lookup = %v", adj)
		}
		// The interesting case: a vertex on another page of the pass. The
		// only legal answer is "unknown" (nil); reading that page's ordinal
		// or the side table here is a race.
		if adj := m.adjOfData(42); adj != nil {
			t.Fatalf("a miss outside the task's own page returned %v", adj)
		}
	}
	close(done)
	wg.Wait()
}
