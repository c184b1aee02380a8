// Package graph provides the in-memory graph model shared by every part of
// the DUALSIM reproduction: the data graph in CSR form, small query graphs,
// automorphism enumeration with symmetry breaking, and a brute-force
// reference enumerator used to validate the disk-based engine and the
// distributed baselines.
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a data vertex. After preprocessing (see ReorderByDegree
// and package storage) vertex IDs coincide with the paper's total order:
// v_i precedes v_j iff id(v_i) < id(v_j).
type VertexID uint32

// Graph is an immutable undirected simple graph in compressed sparse row
// form. Adjacency lists are sorted by vertex ID. Self-loops and duplicate
// edges are removed at construction.
type Graph struct {
	offsets []int64
	edges   []VertexID
}

// NewGraph builds a graph with n vertices from an edge list. Edges may appear
// in any order and direction; duplicates and self-loops are dropped. Edge
// endpoints must be < n.
func NewGraph(n int, edgeList [][2]VertexID) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	deg := make([]int64, n+1)
	for _, e := range edgeList {
		if int(e[0]) >= n || int(e[1]) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e[0], e[1], n)
		}
		if e[0] == e[1] {
			continue
		}
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	offsets := make([]int64, n+1)
	for i := 1; i <= n; i++ {
		offsets[i] = offsets[i-1] + deg[i]
	}
	edges := make([]VertexID, offsets[n])
	fill := make([]int64, n)
	for _, e := range edgeList {
		if e[0] == e[1] {
			continue
		}
		u, v := e[0], e[1]
		edges[offsets[u]+fill[u]] = v
		fill[u]++
		edges[offsets[v]+fill[v]] = u
		fill[v]++
	}
	// Sort each adjacency list and squeeze out duplicates in place.
	out := edges[:0]
	newOffsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v]+fill[v]
		adj := edges[lo:hi]
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
		newOffsets[v] = int64(len(out))
		var prev VertexID
		first := true
		for _, w := range adj {
			if first || w != prev {
				out = append(out, w)
				prev = w
				first = false
			}
		}
	}
	newOffsets[n] = int64(len(out))
	return &Graph{offsets: newOffsets, edges: out[:len(out):len(out)]}, nil
}

// MustNewGraph is NewGraph that panics on error; for tests and literals.
func MustNewGraph(n int, edgeList [][2]VertexID) *Graph {
	g, err := NewGraph(n, edgeList)
	if err != nil {
		panic(err)
	}
	return g
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.edges) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Adj returns the sorted adjacency list of v. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Adj(v VertexID) []VertexID {
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v VertexID) bool {
	adj := g.Adj(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	m := 0
	for v := 0; v < g.NumVertices(); v++ {
		m = max(m, g.Degree(VertexID(v)))
	}
	return m
}

// EdgeList returns every undirected edge once, as (u, v) with u < v, in
// lexicographic order.
func (g *Graph) EdgeList() [][2]VertexID {
	out := make([][2]VertexID, 0, g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Adj(VertexID(u)) {
			if VertexID(u) < v {
				out = append(out, [2]VertexID{VertexID(u), v})
			}
		}
	}
	return out
}

// Less reports the paper's total order over data vertices:
// v_i < v_j iff d(v_i) < d(v_j), or d(v_i) == d(v_j) and id(v_i) < id(v_j).
func (g *Graph) Less(vi, vj VertexID) bool {
	di, dj := g.Degree(vi), g.Degree(vj)
	if di != dj {
		return di < dj
	}
	return vi < vj
}

// DegreeOrderPerm returns a permutation perm such that perm[old] = new where
// new IDs are assigned in increasing total order (degree, then old ID).
// After relabeling, plain ID comparison realizes the total order.
func (g *Graph) DegreeOrderPerm() []VertexID {
	n := g.NumVertices()
	order := make([]VertexID, n)
	for i := range order {
		order[i] = VertexID(i)
	}
	sort.Slice(order, func(i, j int) bool { return g.Less(order[i], order[j]) })
	perm := make([]VertexID, n)
	for newID, oldID := range order {
		perm[oldID] = VertexID(newID)
	}
	return perm
}

// Relabel returns a copy of g with vertex v renamed perm[v].
func (g *Graph) Relabel(perm []VertexID) (*Graph, error) {
	if len(perm) != g.NumVertices() {
		return nil, fmt.Errorf("graph: perm has %d entries, want %d", len(perm), g.NumVertices())
	}
	el := g.EdgeList()
	for i := range el {
		el[i][0] = perm[el[i][0]]
		el[i][1] = perm[el[i][1]]
	}
	return NewGraph(g.NumVertices(), el)
}

// ReorderByDegree relabels g so that vertex IDs follow the degree-based total
// order used throughout the paper. It returns the relabeled graph and the
// permutation (perm[old] = new).
func ReorderByDegree(g *Graph) (*Graph, []VertexID) {
	perm := g.DegreeOrderPerm()
	rg, err := g.Relabel(perm)
	if err != nil {
		panic(err) // perm is always valid by construction
	}
	return rg, perm
}

// IsDegreeOrdered reports whether IDs already realize the total order, i.e.
// degrees are non-decreasing in vertex ID.
func (g *Graph) IsDegreeOrdered() bool {
	for v := 1; v < g.NumVertices(); v++ {
		if g.Degree(VertexID(v)) < g.Degree(VertexID(v-1)) {
			return false
		}
	}
	return true
}

// ContainsSorted reports whether sorted slice a contains v. It is the
// membership probe behind U_CON filtering during red-vertex traversal
// (paper Algorithms 2 and 4).
func ContainsSorted(a []VertexID, v VertexID) bool {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
}
