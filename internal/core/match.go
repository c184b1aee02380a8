package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dualsim/internal/graph"
)

// matcher carries the per-task state of vertex-level mapping: the data
// vertex assigned to each position, the query-vertex mapping being expanded,
// the task's intersection arena, and local counters flushed when the task
// ends. Matchers are pooled per run (run.matchers): a task borrows one,
// slices and arena included, until flush.
type matcher struct {
	r  *run
	lw *levelWindow // level-0 window (internal) or last-level window (external)
	g  int          // current group

	internal  bool
	lastV     graph.VertexID
	lastAdj   []graph.VertexID
	lastSplit int // lastAdj's forward split

	// own is the one page of lw a last-level page task may read (nil for the
	// task of a multi-page vertex, which reads none): the task runs while
	// the rest of its pass is still landing, other pages' load callbacks
	// writing their ordinals of the index. Its own page's complete records —
	// overlay-merged where the run's snapshot touches them — are all such a
	// task can legitimately need from lw: anything else it touches lives in
	// the loaded window of an outer level.
	own *windowPage

	// cursor[g] is group g's position in lw.verts[g] for the last-level
	// records a task roots, which ascend (seek, inGroup).
	cursor []int

	pos2v   []graph.VertexID
	posMask uint32 // assigned positions
	// posAdj[p] is the resolved adjacency list of position p's vertex while
	// adjMask has bit p, and posSplit[p] its forward split: filled on first
	// use (adjPos), dropped when p is assigned anew or the task takes a new
	// root, so the table → ordinal → slot walk runs once per assignment.
	// The lists alias pinned pages and never outlive the task — a matcher
	// leaves the pool with adjMask clear: a page's lists are its buffer
	// frame's memory, which the frame's next load overwrites once unpinned.
	posAdj   [][]graph.VertexID
	posSplit []int
	adjMask  uint32

	mapping []graph.VertexID // query vertex -> data vertex
	qMask   uint32           // mapped query vertices
	qPos    []int            // red query vertex -> its position in the sequence being expanded

	// arena is the matcher's intersection scratch (depth-indexed, no
	// per-candidate allocation); marks holds the list of the position whose
	// vertex the sibling intersections below it share (candidates). Its
	// list aliases a pinned page like posAdj's, so flush clears it while the
	// task's pages are still pinned: a pooled matcher holds no marks.
	arena *graph.Arena
	marks graph.Marks

	localInternal uint64
	localExternal uint64

	// deliver says the task's embeddings go to the run's row hook: the run
	// has one. rows then collects them, back to back, until it holds rowCap
	// of them or the task ends. rowCap doubles from one row to rowBatch with
	// every handover and stays with the pooled matcher, so a run's first row
	// leaves alone and its steady state is full batches.
	deliver bool
	rows    []graph.VertexID
	rowCap  int
}

// rowBatch is the most embeddings a task collects before it hands them to
// the run's row hook: enough that what the hook does once per call (a lock, a
// write) is paid a few times per thousand rows, little enough that a batch
// stays in cache and a consumer never waits long for rows that exist.
const rowBatch = 512

// newMatcher borrows a matcher from the run's pool for one task over lw.
func (r *run) newMatcher(lw *levelWindow, internal bool) *matcher {
	m := r.matchers.Get().(*matcher)
	m.lw, m.internal, m.own, m.adjMask = lw, internal, nil, 0
	m.localInternal, m.localExternal = 0, 0
	m.deliver = r.onRows != nil
	return m
}

// allocMatcher is the pool's constructor.
func (r *run) allocMatcher() any {
	n := r.p.Query.NumVertices()
	return &matcher{
		r:        r,
		cursor:   make([]int, len(r.p.Groups)),
		pos2v:    make([]graph.VertexID, r.k),
		posAdj:   make([][]graph.VertexID, r.k),
		posSplit: make([]int, r.k),
		mapping:  make([]graph.VertexID, n),
		qPos:     make([]int, n),
		arena:    graph.NewArena(),
		rowCap:   1,
	}
}

// handRows hands the embeddings collected so far to the run's row hook and
// takes the buffer back.
func (m *matcher) handRows() {
	m.r.onRows(m.rows, len(m.mapping))
	m.rows = m.rows[:0]
	m.rowCap = min(2*m.rowCap, rowBatch)
}

// flush hands over the rows the task still holds, publishes its local
// counters into its window's accumulators (merged into the run totals and
// scope only when the window completes — see settleWindowCounts) and the
// arena's kernel-selection counts into the run's scope, then returns
// the matcher to the pool. Batching per task keeps the per-embedding hot path
// free of shared-cacheline traffic.
func (m *matcher) flush() {
	if len(m.rows) > 0 {
		m.handRows()
	}
	if !addCount(&m.lw.internal, m.localInternal) || !addCount(&m.lw.external, m.localExternal) {
		m.r.fail(m.r.countOverflow(" in a window"))
	}
	m.marks.Clear()
	st := m.arena.TakeStats()
	sc := m.r.scope
	if st.Linear > 0 {
		sc.IntersectLin.Add(st.Linear)
	}
	if st.Gallop > 0 {
		sc.IntersectGal.Add(st.Gallop)
	}
	if st.KWay > 0 {
		sc.IntersectKWay.Add(st.KWay)
	}
	if st.Probe > 0 {
		sc.IntersectProbe.Add(st.Probe)
	}
	m.r.matchers.Put(m)
}

// clipPos returns the adjacency list of the data vertex assigned to
// position pos — resolved on the first request after the assignment —
// clipped to [lo, hi], a non-empty interval. A bound on either side of that
// vertex starts the clip at the list's forward split: positions ascend with
// their vertices, so a descent's own bounds always lie on one side, and a
// clip at the vertex itself costs no search at all.
func (m *matcher) clipPos(pos int, lo, hi int64) []graph.VertexID {
	list := m.adjPos(pos)
	if own := int64(m.pos2v[pos]); lo > own {
		list = list[m.posSplit[pos]:]
	} else if hi < own {
		list = list[:m.posSplit[pos]]
	}
	return clip(list, lo, hi)
}

// adjPos returns the whole adjacency list of the data vertex assigned to
// position pos, resolved on the first request after the assignment.
func (m *matcher) adjPos(pos int) []graph.VertexID {
	if bit := uint32(1) << uint(pos); m.adjMask&bit == 0 {
		m.posAdj[pos], m.posSplit[pos] = m.resolve(m.pos2v[pos])
		m.adjMask |= bit
	}
	return m.posAdj[pos]
}

// candidates returns the candidates of a node clipped to [lo, hi], a
// non-empty interval: the intersection of the adjacency lists of the
// assigned positions in conn and, where the node keeps one, of window, its
// window's list already clipped (nil for none; conn and window are not both
// empty). The result lives in the arena at depth. This is the one way every
// candidate list is built — a red level's (descend) and a non-red vertex's
// (matchNonRed) alike.
//
// Of conn, the position assigned at the highest level is assigned earliest,
// so its vertex changes least often: every sibling intersection below it
// shares its list. That list is marked in m.marks — whole, re-marked only
// when the position's vertex changes — and the intersection of the other
// operands, clipped, is probed against it, which needs no clip of the marked
// list at all. Where the probed list is far longer than the marked one, or
// the marked list's span is past the bit set's cap (Arena.Probe), the clipped
// list joins a pairwise kernel instead. A single list is returned as it is.
func (m *matcher) candidates(depth int, conn uint32, window []graph.VertexID, lo, hi int64) []graph.VertexID {
	if conn == 0 {
		return window
	}
	level := m.r.p.LevelOfPos
	mp := bits.TrailingZeros32(conn)
	for c := conn & (conn - 1); c != 0; c &= c - 1 {
		if p := bits.TrailingZeros32(c); level[p] > level[mp] {
			mp = p
		}
	}
	lists := m.arena.Lists(depth, bits.OnesCount32(conn))
	for c := conn &^ (1 << uint(mp)); c != 0; c &= c - 1 {
		lists = append(lists, m.clipPos(bits.TrailingZeros32(c), lo, hi))
	}
	if window != nil {
		lists = append(lists, window)
	}
	if len(lists) == 0 {
		return m.clipPos(mp, lo, hi)
	}
	probed := m.arena.IntersectK(depth, lists)
	if len(probed) == 0 {
		return probed
	}
	if out, ok := m.arena.Probe(depth, &m.marks, m.adjPos(mp), probed); ok {
		return out
	}
	return m.arena.Intersect(depth, probed, m.clipPos(mp, lo, hi))
}

// resolve returns the adjacency list of an assigned (hence resident) data
// vertex and its forward split: the task's own last-level record, else the
// first window on the path that indexes it.
func (m *matcher) resolve(v graph.VertexID) ([]graph.VertexID, int) {
	if !m.internal && v == m.lastV {
		return m.lastAdj, m.lastSplit
	}
	if m.internal {
		adj, split, _ := m.lw.adjOf(v)
		return adj, split
	}
	for l := 0; l < m.r.k-1; l++ {
		if wd := m.r.winData[l]; wd != nil {
			if adj, split, ok := wd.adjOf(v); ok {
				return adj, split
			}
		}
	}
	if m.own != nil {
		adj, split, _ := m.own.adjOf(v)
		return adj, split
	}
	return nil, 0
}

// posBounds returns the inclusive ID interval the total order leaves open
// for position pos: above the nearest assigned position below it and below
// the nearest one above (assigned positions ascend with their vertices, so
// the nearest are the tightest). lo > hi means no vertex qualifies.
func (m *matcher) posBounds(pos int) (lo, hi int64) {
	hi = math.MaxUint32
	if below := m.posMask & (1<<uint(pos) - 1); below != 0 {
		lo = int64(m.pos2v[bits.Len32(below)-1]) + 1
	}
	if above := m.posMask >> uint(pos+1); above != 0 {
		hi = int64(m.pos2v[pos+1+bits.TrailingZeros32(above)]) - 1
	}
	return lo, hi
}

// poBounds is posBounds for the non-red vertex plan.RBI.NonRed[idx]: the
// interval its partial orders to already-mapped query vertices leave open.
func (m *matcher) poBounds(idx int) (lo, hi int64) {
	hi = math.MaxUint32
	b := &m.r.p.NonRedBounds[idx]
	for _, q := range b.Lower {
		lo = max(lo, int64(m.mapping[q])+1)
	}
	for _, q := range b.Upper {
		hi = min(hi, int64(m.mapping[q])-1)
	}
	return lo, hi
}

// clip is sliceRange over a non-empty interval from posBounds/poBounds. The
// whole ID space — a node nothing bounds — costs no look at the list.
func clip(list []graph.VertexID, lo, hi int64) []graph.VertexID {
	if lo == 0 && hi == math.MaxUint32 {
		return list
	}
	return sliceRange(list, graph.VertexID(lo), graph.VertexID(hi))
}

// allInternal reports whether every assigned position lies in the current
// internal area (the level-0 window's ID range).
func (m *matcher) allInternal() bool {
	wd := m.r.winData[0]
	for p := 0; p < m.r.k; p++ {
		if m.posMask&(1<<uint(p)) == 0 {
			continue
		}
		if v := m.pos2v[p]; v < wd.lo || v > wd.hi {
			return false
		}
	}
	return true
}

// --- external enumeration -------------------------------------------------

// canceled reports whether done, the run's Done channel taken once per task,
// is closed: a receive that never blocks, where ctx.Err would take the
// context's lock, which every worker of the run shares.
func canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// extMapPage runs EXTVERTEXMAPPING for every complete record of a
// just-landed last-level page, rooted at its overlay-merged list where the
// run's snapshot touches it. Invoked on a worker while later pages of the
// pass are still loading: lookups in the pass are restricted to this page
// (see matcher.own).
func (r *run) extMapPage(wp *windowPage, lw *levelWindow) {
	if r.firstErr() != nil {
		return
	}
	m := r.newMatcher(lw, false)
	m.own = wp
	done := r.ctx.Done()
	first := wp.page.First()
	m.seek(first)
	for i := 0; i < wp.page.Slots(); i++ {
		adj, split, ok := wp.list(i) // overlay-merged where the snapshot touches it
		if !ok {
			continue // a chunk: rooted once, when the vertex's last chunk lands (stream.root)
		}
		if canceled(done) {
			break // cancellation: abandon the rest of the page
		}
		r.extMapRecord(m, first+graph.VertexID(i), adj, split)
	}
	m.flush()
}

// extMapVertex roots the external traversal at one multi-page vertex with
// its concatenated adjacency.
func (r *run) extMapVertex(e sideEntry, lw *levelWindow) {
	if r.firstErr() != nil {
		return
	}
	m := r.newMatcher(lw, false)
	m.seek(e.v)
	r.extMapRecord(m, e.v, e.adj, e.split)
	m.flush()
}

// seek places every group's cursor at the first of its pass candidates — the
// level's candidate sequence — not below v, the first vertex the task roots.
func (m *matcher) seek(v graph.VertexID) {
	for g := range m.cursor {
		m.cursor[g], _ = slices.BinarySearch(m.r.cand[g][m.r.k-1], v)
	}
}

// inGroup reports whether v is one of group g's pass candidates — every
// vertex is a root's — moving the group's cursor forward to it: a task roots
// its records in ascending vertex order from where seek placed the cursors,
// so no call searches.
func (m *matcher) inGroup(g int, v graph.VertexID) bool {
	if m.r.root(g, m.r.k-1) {
		return true
	}
	verts, c := m.r.cand[g][m.r.k-1], m.cursor[g]
	for c < len(verts) && verts[c] < v {
		c++
	}
	m.cursor[g] = c
	return c < len(verts) && verts[c] == v
}

// extMapRecord roots the external traversal at one last-level record whose
// list adj has the given forward split; v is above every vertex the task
// rooted before.
func (r *run) extMapRecord(m *matcher, v graph.VertexID, adj []graph.VertexID, split int) {
	last := r.k - 1
	pos := r.p.MatchingOrder[last]
	for g := range r.p.Groups {
		if !m.inGroup(g, v) {
			continue
		}
		m.g = g
		m.lastV, m.lastAdj, m.lastSplit = v, adj, split
		m.pos2v[pos] = v
		m.posMask, m.adjMask = 1<<uint(pos), 0
		r.descend(m, last-1)
	}
}

// descend assigns the node at the given level (descending to 0) and
// recurses; at level < 0 the red match is complete. Both enumerations assign
// in this one order, the last level first: the external one from a
// last-level record (Algorithm 2's EXTVERTEXMAPPING), the internal one from
// a vertex of its chunk (Algorithm 1's INTSUBGRAPHMAPPING), so the list a
// level's siblings share is the one of the position assigned above them in
// both (candidates). A node's candidates are materialized once per parent
// assignment: the intersection of every connected position's adjacency list,
// each clipped to the interval the total order leaves open inside the
// window's ID range — what a post-filter would discard, and what the window
// cannot hold, is never intersected — and of the window's own list. An
// internal task's window is the level-0 window at every level, an ID range
// whose every vertex qualifies; so is the window of an external forest root
// (level 1 always). Such a window is no operand: a list clipped to the
// interval already is its intersection with it.
func (r *run) descend(m *matcher, level int) {
	if level < 0 {
		r.expandSequences(m, m.internal)
		return
	}
	wd := m.lw
	if !m.internal {
		if level == 0 && m.allInternal() {
			// Every deeper position is inside the internal area and a
			// level-1 candidate always is: whatever this subtree
			// completes, the internal enumeration of this window counts.
			// Stop before intersecting.
			return
		}
		wd = r.winData[level]
	}
	pos := r.p.MatchingOrder[level]
	lo, hi := m.posBounds(pos)
	lo, hi = max(lo, int64(wd.lo)), min(hi, int64(wd.hi))
	if lo > hi {
		return
	}
	vg := r.p.Groups[m.g]
	var conn uint32
	for c := m.posMask; c != 0; c &= c - 1 {
		if p := bits.TrailingZeros32(c); vg.HasTopologyEdge(p, pos) {
			conn |= 1 << uint(p)
		}
	}
	var window []graph.VertexID
	if !m.internal && !r.root(m.g, level) {
		if window = clip(wd.verts[m.g], lo, hi); len(window) == 0 {
			return
		}
	}
	if conn == 0 && window == nil {
		// A root no assigned position is connected to: every vertex of the
		// interval qualifies.
		for v := lo; v <= hi; v++ {
			m.assign(pos, graph.VertexID(v))
			r.descend(m, level-1)
			m.unassign(pos)
		}
		return
	}
	for _, v := range m.candidates(level, conn, window, lo, hi) {
		m.assign(pos, v)
		r.descend(m, level-1)
		m.unassign(pos)
	}
}

func (m *matcher) assign(pos int, v graph.VertexID) {
	m.pos2v[pos] = v
	m.posMask |= 1 << uint(pos)
	m.adjMask &^= 1 << uint(pos)
}

func (m *matcher) unassign(pos int) {
	m.posMask &^= 1 << uint(pos)
}

// --- internal enumeration ---------------------------------------------------

// minStealSpan is the smallest remaining vertex range a task will split:
// below two vertices there is nothing to hand off. Splitting is further
// gated on workerPool.hungry, so a busy pool never splits at all.
const minStealSpan = 2

// internalEnumerate finds internal subgraphs: red matches entirely inside
// the level-0 window (Algorithm 1's INTSUBGRAPHMAPPING). The vertices lo..hi−1
// are this task's chunk of the window, the candidates of the last level's
// position, which the descent assigns first. While iterating, the task
// participates in bounded work-stealing: whenever the pool's queue drains
// and a worker sits idle, the task splits off the second half of its
// remaining range as a new task, so one skewed high-degree candidate region
// cannot stall the window on a single worker.
func (r *run) internalEnumerate(g int, lo, hi graph.VertexID, lw *levelWindow) {
	if r.firstErr() != nil {
		return
	}
	m := r.newMatcher(lw, true)
	m.g = g
	last := r.k - 1
	pos := r.p.MatchingOrder[last]
	done := r.ctx.Done()
	for v := lo; v < hi; v++ {
		if canceled(done) {
			break // cancellation: abandon the rest of the chunk
		}
		if hi-v >= minStealSpan && r.workers.hungry() {
			mid, end := v+(hi-v)/2, hi
			if r.workers.trySubmit(func() { r.internalEnumerate(g, mid, end, lw) }) {
				r.scope.StealSplits.Add(1)
				hi = mid
			}
		}
		m.pos2v[pos] = v
		m.posMask, m.adjMask = 1<<uint(pos), 0
		r.descend(m, last-1)
	}
	m.flush()
}

// --- sequence expansion and non-red matching --------------------------------

// expandSequences turns one complete position assignment into embeddings:
// each full-order query sequence of the group yields a red mapping, which is
// then extended over the black and ivory vertices.
func (r *run) expandSequences(m *matcher, internal bool) {
	for _, seq := range r.p.Groups[m.g].Sequences {
		m.qMask = 0
		for pos, qv := range seq {
			m.mapping[qv] = m.pos2v[pos]
			m.qPos[qv] = pos
			m.qMask |= 1 << uint(qv)
		}
		r.matchNonRed(m, 0, internal)
	}
}

// matchNonRed extends the current red mapping over plan.RBI.NonRed[idx:]:
// black vertices scan their red neighbor's adjacency list, ivory vertices
// intersect the lists of their red neighbors (§5.2), read through the
// neighbors' positions (clipPos) and clipped to what the partial orders
// leave open (poBounds). No I/O is performed — every needed adjacency list is
// already in the buffer. The candidates are built as a red level's are
// (candidates): a black vertex's one list is scanned as it is, an ivory
// vertex's lists intersected, the earliest-assigned red's list marked once
// for every red match below it. A task without a row hook stops at the plan's
// tail and counts it (countTail); rows are enumerated to the last vertex.
func (r *run) matchNonRed(m *matcher, idx int, internal bool) {
	if idx == len(r.p.RBI.NonRed) {
		if internal {
			m.localInternal++
		} else {
			m.localExternal++
		}
		if m.deliver {
			m.rows = append(m.rows, m.mapping...)
			if len(m.rows) >= m.rowCap*len(m.mapping) {
				m.handRows()
			}
		}
		return
	}
	u := r.p.RBI.NonRed[idx]
	lo, hi := m.poBounds(idx)
	if lo > hi {
		return
	}

	var conn uint32
	for _, rq := range r.p.RBI.RedNeighbors[u] {
		conn |= 1 << uint(m.qPos[rq])
	}
	cands := m.candidates(r.k+idx, conn, nil, lo, hi)
	// An empty list needs no count: the loop below adds nothing either.
	if !m.deliver && len(cands) > 0 && idx == len(r.p.RBI.NonRed)-r.p.Tail {
		r.countTail(m, u, cands, internal)
		return
	}
	for _, v := range cands {
		if !m.nonRedOK(v) {
			continue
		}
		m.mapping[u] = v
		m.qMask |= 1 << uint(u)
		r.matchNonRed(m, idx+1, internal)
		m.qMask &^= 1 << uint(u)
	}
}

// countTail adds the embeddings that complete the current mapping over the
// plan's tail (plan.Plan.Tail), whose first vertex u has the candidates
// cands: the tail's members take ascending distinct vertices from the n
// candidates no mapped query vertex holds, C(n, Tail) ways. A vertex mapped
// to one of u's red neighbors is not looked up: there are no self-loops, so
// it is not on that neighbor's list. A count that does not fit in 64 bits,
// or that takes the task's tally past them, fails the run.
func (r *run) countTail(m *matcher, u int, cands []graph.VertexID, internal bool) {
	n := uint64(len(cands))
	for qv, v := range m.mapping {
		if m.qMask&(1<<uint(qv)) != 0 && !r.p.Query.HasEdge(u, qv) && graph.ContainsSorted(cands, v) {
			n--
		}
	}
	c, ok := binomial(n, uint64(r.p.Tail))
	tally := &m.localExternal
	if internal {
		tally = &m.localInternal
	}
	var carry uint64
	if *tally, carry = bits.Add64(*tally, c, 0); !ok || carry != 0 {
		r.fail(r.countOverflow(fmt.Sprintf(" at a red match with C(%d, %d) embeddings", n, r.p.Tail)))
	}
}

// binomial returns C(n, k) for k ≥ 1, or false when it exceeds 64 bits. Step
// i turns C(n-k+i-1, i-1) into C(n-k+i, i), which grows with i, so the first
// step whose 128-bit product divided by i does not fit is an overflow of the
// result too. C(n, 1) takes no division.
func binomial(n, k uint64) (uint64, bool) {
	if k > n {
		return 0, true
	}
	c := n - k + 1 // C(n-k+1, 1)
	for i := uint64(2); i <= k; i++ {
		hi, lo := bits.Mul64(c, n-k+i)
		if hi >= i {
			return 0, false
		}
		c, _ = bits.Div64(hi, lo, i)
	}
	return c, true
}

// nonRedOK checks injectivity for assigning data vertex v to a non-red query
// vertex (the partial orders were applied to the candidates: poBounds).
func (m *matcher) nonRedOK(v graph.VertexID) bool {
	n := m.r.p.Query.NumVertices()
	for qv := 0; qv < n; qv++ {
		if m.qMask&(1<<uint(qv)) != 0 && m.mapping[qv] == v {
			return false
		}
	}
	return true
}
