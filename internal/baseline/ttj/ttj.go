// Package ttj reimplements TwinTwigJoin (Lai, Qin, Lin, Chang; PVLDB 2015),
// the MapReduce subgraph-enumeration baseline of the paper: the query is
// decomposed into twin twigs (one or two edges incident to a center vertex)
// and evaluated as a left-deep join, one MapReduce round per join. Partial
// results are materialized between rounds — the explosive intermediate
// state DUALSIM's dual approach avoids — and counted for Table 4.
package ttj

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"dualsim/internal/graph"
	"dualsim/internal/mr"
)

// Twig is a star of one or two query edges around a center.
type Twig struct {
	Center int
	Leaves []int
}

// Vertices returns the twig's query vertices (center first).
func (t Twig) Vertices() []int {
	out := []int{t.Center}
	return append(out, t.Leaves...)
}

// Decompose splits q's edges into twin twigs forming a valid left-deep join
// order: every twig after the first shares at least one vertex with the
// union of the preceding twigs. Greedy: always extend from the connected
// frontier, preferring centers with the most uncovered incident edges
// (capped at two per twig).
func Decompose(q *graph.Query) ([]Twig, error) {
	covered := map[[2]int]bool{}
	edgeKey := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	uncoveredAt := func(v int) []int {
		var out []int
		for _, w := range q.Neighbors(v) {
			if !covered[edgeKey(v, w)] {
				out = append(out, w)
			}
		}
		return out
	}
	var twigs []Twig
	matched := map[int]bool{}
	remaining := q.NumEdges()
	for remaining > 0 {
		// Candidate centers: on the frontier after round 1.
		best, bestScore := -1, -1
		for v := 0; v < q.NumVertices(); v++ {
			u := uncoveredAt(v)
			if len(u) == 0 {
				continue
			}
			if len(twigs) > 0 {
				// Twig must touch the matched set.
				touches := matched[v]
				for _, w := range u {
					if matched[w] {
						touches = true
					}
				}
				if !touches {
					continue
				}
			}
			score := min(len(u), 2)
			// Prefer larger twigs, then higher query degree.
			score = score*100 + q.Degree(v)
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("ttj: no connected twig available (query disconnected?)")
		}
		leaves := uncoveredAt(best)
		if len(twigs) > 0 && !matched[best] {
			// Keep only leaves that connect or take the first two; at least
			// one leaf must be matched when the center is new.
			sort.Slice(leaves, func(i, j int) bool {
				return matched[leaves[i]] && !matched[leaves[j]]
			})
		}
		if len(leaves) > 2 {
			leaves = leaves[:2]
		}
		t := Twig{Center: best, Leaves: append([]int(nil), leaves...)}
		twigs = append(twigs, t)
		matched[best] = true
		for _, w := range t.Leaves {
			covered[edgeKey(best, w)] = true
			matched[w] = true
			remaining--
		}
	}
	return twigs, nil
}

// Options configures a TwinTwigJoin execution.
type Options struct {
	// Workers simulates the cluster size (1 = single machine).
	Workers int
	// TempDir holds graph, shuffle, and intermediate files.
	TempDir string
	// MemoryPerWorker caps each reducer's in-memory bytes.
	MemoryPerWorker int64
	// FailOnOverflow selects Spark-style failure instead of spilling.
	FailOnOverflow bool
	// MaxSpillBytes caps total spill volume per round (Hadoop disk budget).
	MaxSpillBytes int64
}

// Stats reports one execution.
type Stats struct {
	Twigs             []Twig
	Rounds            int
	PerRound          []uint64 // |R_i| after each round
	TotalIntermediate uint64   // sum of |R_i| for every non-final round
	MR                mr.Counters
	Elapsed           time.Duration
}

const (
	tagGraph   = 'G'
	tagPartial = 'P'
)

// Run enumerates q in g (which must already carry the degree-based vertex
// order) and returns the occurrence count under symmetry breaking.
func Run(g *graph.Graph, q *graph.Query, opt Options) (uint64, *Stats, error) {
	start := time.Now()
	if opt.TempDir == "" {
		return 0, nil, fmt.Errorf("ttj: TempDir required")
	}
	opt.Workers = max(opt.Workers, 1)
	po := graph.SymmetryBreak(q)
	twigs, err := Decompose(q)
	if err != nil {
		return 0, nil, err
	}
	stats := &Stats{Twigs: twigs, Rounds: len(twigs)}

	graphDS, err := writeGraphDataset(g, opt)
	if err != nil {
		return 0, nil, err
	}
	defer graphDS.Remove()

	cfg := mr.Config{
		Workers:         opt.Workers,
		TempDir:         opt.TempDir,
		MemoryPerWorker: opt.MemoryPerWorker,
		FailOnOverflow:  opt.FailOnOverflow,
		MaxSpillBytes:   opt.MaxSpillBytes,
	}

	matched := []int{} // sorted matched query vertices
	var partials *mr.Dataset
	for round, twig := range twigs {
		nextMatched := unionVerts(matched, twig.Vertices())
		job := joinJob(g, q, po, twig, matched, nextMatched, round)
		var out *mr.Dataset
		var counters mr.Counters
		if round == 0 {
			out, counters, err = mr.Run(cfg, job, graphDS)
		} else {
			out, counters, err = mr.Run(cfg, job, graphDS, partials)
			partials.Remove()
		}
		stats.MR.Add(counters)
		if err != nil {
			stats.Elapsed = time.Since(start)
			return 0, stats, fmt.Errorf("ttj: round %d: %w", round+1, err)
		}
		n, err := out.Count()
		if err != nil {
			return 0, stats, err
		}
		stats.PerRound = append(stats.PerRound, n)
		if round < len(twigs)-1 {
			stats.TotalIntermediate += n
		}
		partials = out
		matched = nextMatched
	}
	count, err := partials.Count()
	partials.Remove()
	if err != nil {
		return 0, stats, err
	}
	stats.Elapsed = time.Since(start)
	return count, stats, nil
}

// writeGraphDataset serializes adjacency records (the HDFS graph input).
func writeGraphDataset(g *graph.Graph, opt Options) (*mr.Dataset, error) {
	parts := opt.Workers
	records := make([][]byte, 0, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Adj(graph.VertexID(v))
		rec := make([]byte, 1+4+4+4*len(adj))
		rec[0] = tagGraph
		binary.LittleEndian.PutUint32(rec[1:], uint32(v))
		binary.LittleEndian.PutUint32(rec[5:], uint32(len(adj)))
		for i, w := range adj {
			binary.LittleEndian.PutUint32(rec[9+4*i:], uint32(w))
		}
		records = append(records, rec)
	}
	return mr.CreateDataset(opt.TempDir, "graph", parts, records)
}

// joinJob builds the MapReduce job for one round: graph records emit twig
// instances, partial records re-key themselves; the reducer joins.
func joinJob(g *graph.Graph, q *graph.Query, po []graph.PartialOrder, twig Twig, matched, nextMatched []int, round int) mr.Job {
	twigVerts := twig.Vertices()
	joinVerts := intersectVerts(matched, twigVerts) // empty in round 0
	newVerts := subtractVerts(twigVerts, matched)   // twig vertices not yet matched

	idxIn := func(list []int, v int) int {
		for i, x := range list {
			if x == v {
				return i
			}
		}
		return -1
	}

	mapFn := func(rec []byte, emit mr.Emit) error {
		// Graph records start with tagGraph ('G', 71). Partial datasets are
		// MR outputs, so each record is KV-wrapped: its first byte is the
		// low byte of the key length 1+4*|emb| <= 65, which can never be
		// 71 — the two encodings are unambiguous.
		if rec[0] == tagGraph {
			v := graph.VertexID(binary.LittleEndian.Uint32(rec[1:]))
			deg := int(binary.LittleEndian.Uint32(rec[5:]))
			adj := make([]graph.VertexID, deg)
			for i := 0; i < deg; i++ {
				adj[i] = graph.VertexID(binary.LittleEndian.Uint32(rec[9+4*i:]))
			}
			return emitTwigInstances(q, po, twig, twigVerts, joinVerts, v, adj, emit, idxIn)
		}
		if round == 0 {
			return nil // no partials in round 0
		}
		partialRec, _, err := mr.DecodeKV(rec)
		if err != nil || len(partialRec) == 0 || partialRec[0] != tagPartial {
			return fmt.Errorf("ttj: unrecognized input record (err=%v)", err)
		}
		emb := decodeEmbedding(partialRec[1:])
		key := make([]byte, 4*len(joinVerts))
		for i, qv := range joinVerts {
			binary.LittleEndian.PutUint32(key[4*i:], uint32(emb[idxIn(matched, qv)]))
		}
		return emit(key, append([]byte{tagPartial}, partialRec[1:]...))
	}

	reduceFn := func(key []byte, values [][]byte, emit mr.Emit) error {
		if round == 0 {
			// Round 0: twig instances become R_1 directly.
			for _, v := range values {
				if v[0] != tagGraph {
					continue
				}
				rec := append([]byte{tagPartial}, v[1:]...)
				if err := emit(rec, nil); err != nil {
					return err
				}
			}
			return nil
		}
		var partials, twigsNew [][]uint32
		for _, v := range values {
			switch v[0] {
			case tagPartial:
				partials = append(partials, decodeEmbedding(v[1:]))
			case tagGraph:
				twigsNew = append(twigsNew, decodeEmbedding(v[1:]))
			}
		}
		for _, p := range partials {
			for _, tw := range twigsNew {
				merged, ok := mergeJoin(q, po, p, tw, matched, newVerts, nextMatched)
				if !ok {
					continue
				}
				rec := make([]byte, 1+4*len(merged))
				rec[0] = tagPartial
				for i, dv := range merged {
					binary.LittleEndian.PutUint32(rec[1+4*i:], uint32(dv))
				}
				if err := emit(rec, nil); err != nil {
					return err
				}
			}
		}
		return nil
	}

	return mr.Job{Name: fmt.Sprintf("ttj-round%d", round+1), Map: mapFn, Reduce: reduceFn}
}

// emitTwigInstances matches the twig around data vertex v. Emitted values
// are the data vertices of the twig's NEW query vertices (tagGraph prefix);
// the key is the join vertices' data vertices. In round 0 the value is the
// full instance keyed by itself.
func emitTwigInstances(q *graph.Query, po []graph.PartialOrder, twig Twig, twigVerts, joinVerts []int, v graph.VertexID, adj []graph.VertexID, emit mr.Emit, idxIn func([]int, int) int) error {
	assign := map[int]graph.VertexID{twig.Center: v}
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(twig.Leaves) {
			// PO within twig.
			for _, c := range po {
				dl, okL := assign[c.Lo]
				dh, okH := assign[c.Hi]
				if okL && okH && !(dl < dh) {
					return nil
				}
			}
			if len(joinVerts) == 0 {
				// Round 0: value carries the full instance in twigVerts order.
				val := make([]byte, 1+4*len(twigVerts))
				val[0] = tagGraph
				for j, qv := range twigVerts {
					binary.LittleEndian.PutUint32(val[1+4*j:], uint32(assign[qv]))
				}
				return emit(val[1:], val)
			}
			key := make([]byte, 4*len(joinVerts))
			for j, qv := range joinVerts {
				binary.LittleEndian.PutUint32(key[4*j:], uint32(assign[qv]))
			}
			// Value: data vertices for new query vertices, in their order.
			newQ := subtractVertsInts(twigVerts, joinVerts)
			val := make([]byte, 1+4*len(newQ))
			val[0] = tagGraph
			for j, qv := range newQ {
				binary.LittleEndian.PutUint32(val[1+4*j:], uint32(assign[qv]))
			}
			return emit(key, val)
		}
		leaf := twig.Leaves[i]
		for _, w := range adj {
			dup := false
			for _, dv := range assign {
				if dv == w {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			assign[leaf] = w
			if err := rec(i + 1); err != nil {
				return err
			}
			delete(assign, leaf)
		}
		return nil
	}
	return rec(0)
}

// mergeJoin combines a partial embedding with a twig's new vertices,
// checking injectivity and the partial orders that become decidable.
func mergeJoin(q *graph.Query, po []graph.PartialOrder, partial, twigNew []uint32, matched, newVerts, nextMatched []int) ([]uint32, bool) {
	get := func(qv int) (uint32, bool) {
		for i, x := range matched {
			if x == qv {
				return partial[i], true
			}
		}
		for i, x := range newVerts {
			if x == qv {
				return twigNew[i], true
			}
		}
		return 0, false
	}
	// Injectivity between new and old.
	for _, nv := range twigNew {
		for _, pv := range partial {
			if nv == pv {
				return nil, false
			}
		}
	}
	// Partial orders that now have both endpoints.
	for _, c := range po {
		dl, okL := get(c.Lo)
		dh, okH := get(c.Hi)
		if okL && okH && !(dl < dh) {
			return nil, false
		}
	}
	merged := make([]uint32, len(nextMatched))
	for i, qv := range nextMatched {
		dv, ok := get(qv)
		if !ok {
			return nil, false
		}
		merged[i] = dv
	}
	return merged, true
}

func decodeEmbedding(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func unionVerts(a []int, b []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range a {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	for _, x := range b {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

func intersectVerts(a, b []int) []int {
	inB := map[int]bool{}
	for _, x := range b {
		inB[x] = true
	}
	var out []int
	for _, x := range a {
		if inB[x] {
			out = append(out, x)
		}
	}
	return out
}

func subtractVerts(a []int, b []int) []int {
	inB := map[int]bool{}
	for _, x := range b {
		inB[x] = true
	}
	var out []int
	for _, x := range a {
		if !inB[x] {
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

func subtractVertsInts(a, b []int) []int { return subtractVerts(a, b) }
