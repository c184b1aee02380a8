// Package rbi implements Section 3 of the paper: the transformation of a
// query graph into a red-black-ivory (RBI) query graph. Red vertices form a
// minimum (connected) vertex cover and are matched by disk traversal; every
// non-red vertex is adjacent only to red vertices (a cover's complement is
// an independent set) and is matched from already-fetched adjacency lists —
// black by scanning its single red neighbor's list, ivory by intersecting
// the lists of its m > 1 red neighbors.
package rbi

import (
	"fmt"
	"math/bits"

	"dualsim/internal/graph"
)

// Color classifies a query vertex.
type Color uint8

// Colors assigned by Transform.
const (
	Red Color = iota
	Black
	Ivory
)

// String implements fmt.Stringer.
func (c Color) String() string {
	switch c {
	case Red:
		return "red"
	case Black:
		return "black"
	case Ivory:
		return "ivory"
	}
	return fmt.Sprintf("Color(%d)", uint8(c))
}

// CoverMode selects the red-vertex selection strategy.
type CoverMode int

// Cover modes. The paper prefers MCVC (connected covers allow traversal to
// follow edges instead of scanning all vertices — "join versus cartesian
// product"); MVC is the straightforward extension kept for the ablation.
// AllRed disables the RBI optimization entirely — every query vertex is
// matched by disk traversal — quantifying how much the black/ivory
// adjacency-list reuse saves.
const (
	MCVC CoverMode = iota
	MVC
	AllRed
)

// Graph is the RBI query graph: a coloring of the query's vertices plus the
// derived structures the planner needs.
type Graph struct {
	Query  *graph.Query
	Colors []Color
	// Red lists red query vertices in ascending order; its induced subgraph
	// is the red query graph q_R.
	Red []int
	// NonRed lists the remaining query vertices in ascending order.
	NonRed []int
	// RedNeighbors[u] lists, for non-red u, its red neighbors (all neighbors
	// are red). Indexed by query vertex; nil for red vertices.
	RedNeighbors [][]int
	// InternalPO is the subset of the partial orders with both endpoints red
	// (these prune full-order query sequences).
	InternalPO []graph.PartialOrder
	// ExternalPO is the rest (enforced during non-red matching).
	ExternalPO []graph.PartialOrder
}

// Transform colors q according to mode, breaking ties among candidate covers
// with Rule 1 (more internal partial orders) and Rule 2 (denser red query
// graph). Finding MVC/MCVC is NP-hard in general but |V_q| is tiny, so an
// exact subset enumeration is used, as the paper notes.
func Transform(q *graph.Query, po []graph.PartialOrder, mode CoverMode) (*Graph, error) {
	n := q.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("rbi: empty query")
	}
	cover, err := chooseCover(q, po, mode)
	if err != nil {
		return nil, err
	}
	g := &Graph{
		Query:        q,
		Colors:       make([]Color, n),
		RedNeighbors: make([][]int, n),
	}
	for v := 0; v < n; v++ {
		if cover&(1<<uint(v)) != 0 {
			g.Colors[v] = Red
			g.Red = append(g.Red, v)
			continue
		}
		g.NonRed = append(g.NonRed, v)
		var reds []int
		for _, w := range q.Neighbors(v) {
			if cover&(1<<uint(w)) == 0 {
				return nil, fmt.Errorf("rbi: internal error: edge (%d,%d) between non-red vertices", v, w)
			}
			reds = append(reds, w)
		}
		g.RedNeighbors[v] = reds
		switch {
		case len(reds) >= 2:
			g.Colors[v] = Ivory
		case len(reds) == 1:
			g.Colors[v] = Black
		default:
			return nil, fmt.Errorf("rbi: non-red vertex %d has no red neighbor (query disconnected?)", v)
		}
	}
	for _, c := range po {
		if g.Colors[c.Lo] == Red && g.Colors[c.Hi] == Red {
			g.InternalPO = append(g.InternalPO, c)
		} else {
			g.ExternalPO = append(g.ExternalPO, c)
		}
	}
	return g, nil
}

// chooseCover returns the bitmask of the selected cover.
func chooseCover(q *graph.Query, po []graph.PartialOrder, mode CoverMode) (uint32, error) {
	n := q.NumVertices()
	if q.NumEdges() == 0 {
		// Single-vertex query: traverse with that one vertex.
		return 1, nil
	}
	if mode == AllRed {
		return (uint32(1) << uint(n)) - 1, nil
	}
	candidates := minimumCovers(q, mode)
	if len(candidates) == 0 {
		return 0, fmt.Errorf("rbi: no %v cover found for %s", mode, q.Name())
	}
	// Rule 1: maximize internal partial orders.
	bestScore := -1
	var r1 []uint32
	for _, mask := range candidates {
		score := 0
		for _, c := range po {
			if mask&(1<<uint(c.Lo)) != 0 && mask&(1<<uint(c.Hi)) != 0 {
				score++
			}
		}
		switch {
		case score > bestScore:
			bestScore = score
			r1 = r1[:0]
			r1 = append(r1, mask)
		case score == bestScore:
			r1 = append(r1, mask)
		}
	}
	// Rule 2: among ties, maximize red-graph edge count.
	bestEdges := -1
	var best uint32
	for _, mask := range r1 {
		e := q.InducedEdgeCount(mask)
		if e > bestEdges || (e == bestEdges && mask < best) {
			bestEdges = e
			best = mask
		}
	}
	_ = n
	return best, nil
}

// minimumCovers enumerates every vertex cover of minimum size (MVC mode) or
// every connected vertex cover of minimum size among connected covers (MCVC
// mode).
func minimumCovers(q *graph.Query, mode CoverMode) []uint32 {
	n := q.NumVertices()
	var out []uint32
	for size := 1; size <= n; size++ {
		for mask := uint32(1); mask < 1<<uint(n); mask++ {
			if bits.OnesCount32(mask) != size {
				continue
			}
			if !q.IsVertexCover(mask) {
				continue
			}
			if mode == MCVC && !q.InducedConnected(mask) {
				continue
			}
			out = append(out, mask)
		}
		if len(out) > 0 {
			return out
		}
	}
	return nil
}

// String implements fmt.Stringer for CoverMode.
func (m CoverMode) String() string {
	switch m {
	case MCVC:
		return "MCVC"
	case MVC:
		return "MVC"
	case AllRed:
		return "AllRed"
	}
	return fmt.Sprintf("CoverMode(%d)", int(m))
}

// RedGraphEdges returns the edges of the red query graph q_R as pairs of
// query vertex IDs.
func (g *Graph) RedGraphEdges() [][2]int {
	var out [][2]int
	for i, u := range g.Red {
		for _, v := range g.Red[i+1:] {
			if g.Query.HasEdge(u, v) {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}
