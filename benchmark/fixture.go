package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"dualsim"
	"dualsim/internal/delta"
	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

// karate is a copy of the repository's testdata/karate.txt, embedded so the
// smoke tier needs nothing outside this directory.
//
//go:embed testdata/karate.txt
var karate string

// Fixture tiers, after janus-datalog's DATABASE_SIZES: smoke for tests,
// default for BENCHMARK.json, large for a manual run against a graph whose
// windows really churn.
const (
	tierSmoke   = "smoke"
	tierDefault = "default"
	tierLarge   = "large"
)

// fixture is the data graph of one run plus the reference answers every
// reply is checked against.
type fixture struct {
	tier  string
	seed  int64
	n     int
	edges [][2]graph.VertexID // generator id space, each edge once
	// ref is the brute-force count per query class on edges.
	ref map[string]uint64
	// only, when set, is the one class every request of a schedule asks
	// for: the large tier runs triangles alone, because one q3 or q4 run on
	// its hubs outlasts any time box.
	only string
}

// shapeSeed fixes the topology of the generated tiers. The run's seed
// relabels the vertices and shuffles the edges (and drives the relabelled
// query spellings and the writer's op stream), so every seed gives the
// server different bytes but the same amount of work: on Chung-Lu graphs of
// one size the q3 and q4 counts differ by up to 2x between generator seeds
// and latency follows, which would make ten seeds measure the generator
// and not the machine.
const shapeSeed = 20160626

// newFixture builds the tier's graph, relabels it from seed and computes
// the reference counts with the in-memory enumerator.
func newFixture(tier string, seed int64) (*fixture, error) {
	f := &fixture{tier: tier, seed: seed}
	var g *graph.Graph
	switch tier {
	case tierSmoke:
		var err error
		if g, err = parseEdgeList(karate); err != nil {
			return nil, err
		}
	case tierDefault:
		// A third of the issue's 30000/150000: a [q1,q3,q4] cycle on the
		// simulated HDD then takes 0.4 s and a 20 s box holds 50 of them.
		g = gen.ChungLu(10000, 50000, 2.8, shapeSeed)
	case tierLarge:
		g = gen.RMAT(16, 600000, 0.57, 0.19, 0.19, shapeSeed)
		f.only = classQ1
	default:
		return nil, fmt.Errorf("unknown tier %q (want %s, %s or %s)", tier, tierSmoke, tierDefault, tierLarge)
	}
	f.n = g.NumVertices()
	f.edges = relabelEdges(f.n, g.EdgeList(), rand.New(rand.NewSource(seed)))
	f.ref = map[string]uint64{}
	for _, class := range countClasses {
		if f.only != "" && class != f.only {
			continue
		}
		c, err := dualsim.CountInMemory(f.n, f.edges, classQuery(class))
		if err != nil {
			return nil, err
		}
		f.ref[class] = c
	}
	if c, ok := f.ref[classQ3]; ok {
		f.ref[classQ3Stream] = c
	}
	return f, nil
}

// relabelEdges returns edges under a random vertex permutation, in random
// order and orientation: an isomorphic graph the database builder sees as
// different input.
func relabelEdges(n int, edges [][2]graph.VertexID, rng *rand.Rand) [][2]graph.VertexID {
	perm := rng.Perm(n)
	out := make([][2]graph.VertexID, len(edges))
	for i, e := range edges {
		u, v := graph.VertexID(perm[e[0]]), graph.VertexID(perm[e[1]])
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		out[i] = [2]graph.VertexID{u, v}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func parseEdgeList(text string) (*graph.Graph, error) {
	var edges [][2]graph.VertexID
	n := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("edge list: bad line %q", line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, err
		}
		n = max(n, u+1, v+1)
		edges = append(edges, [2]graph.VertexID{graph.VertexID(u), graph.VertexID(v)})
	}
	return graph.NewGraph(n, edges)
}

// classQuery returns the query graph behind a class name.
func classQuery(class string) *dualsim.Query {
	switch class {
	case classQ1:
		return dualsim.Triangle()
	case classQ4:
		return dualsim.Clique4()
	default:
		return dualsim.ChordalSquare()
	}
}

// classSpec is the name a class is sent under.
func classSpec(class string) string {
	if class == classQ3Stream {
		return classQ3
	}
	return class
}

// relabelledSpec spells q as an explicit edge list under a random vertex
// permutation with shuffled edge order and orientation: isomorphic to q,
// textually unrelated to its catalog name.
func relabelledSpec(q *dualsim.Query, rng *rand.Rand) string {
	perm := rng.Perm(q.NumVertices())
	edges := append([][2]int(nil), q.Edges()...)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	parts := make([]string, len(edges))
	for i, e := range edges {
		a, b := perm[e[0]], perm[e[1]]
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		parts[i] = fmt.Sprintf("%d-%d", a, b)
	}
	return strings.Join(parts, ",")
}

// request is one entry of a client's cycle.
type request struct {
	Class  string
	Stream bool
	// Body is the exact POST /query body.
	Body string
}

// buildCycle returns the fixed list of requests client steps through, over
// and over. With Relabel the cycle is two passes over the client's classes
// and every second request goes out as a relabelled edge list, the other
// half of the positions in the second pass, so every class is sent both ways.
func buildCycle(w *workload, f *fixture, client int) []request {
	rng := rand.New(rand.NewSource(f.seed*1000003 + int64(client)))
	passes := 1
	if w.Relabel {
		passes = 2
	}
	var cycle []request
	classes := w.Clients[client]
	for k := 0; k < passes*len(classes); k++ {
		pass, pos := k/len(classes), k%len(classes)
		class := classes[pos]
		if f.only != "" {
			class = f.only
		}
		spec := classSpec(class)
		if w.Relabel && (pass+pos)%2 == 1 {
			spec = relabelledSpec(classQuery(class), rng)
		}
		r := request{Class: class, Stream: class == classQ3Stream}
		if r.Stream {
			// The limit sits above the row count, so the stream is never
			// truncated and rows == count can be checked.
			r.Body = fmt.Sprintf(`{"query":%q,"mode":"embeddings","limit":%d}`, spec, streamRowLimit)
		} else {
			r.Body = countBody(spec)
		}
		cycle = append(cycle, r)
	}
	return cycle
}

// countBody is the POST /query body of a count request for spec.
func countBody(spec string) string {
	return fmt.Sprintf(`{"query":%q,"mode":"count"}`, spec)
}

// streamRowLimit is the server's row cap and the limit stream requests ask
// for; it is far above the q3 row count of every tier.
const streamRowLimit = 50_000_000

// edgeStream generates the writer's batches and keeps the reference edge
// set they produce, in the database's id space. Half of each batch deletes
// edges that are live, half inserts edges that are not; every endpoint is
// an endpoint of a live edge drawn uniformly, so a vertex is hit in
// proportion to its degree and hubs take most of the writes.
type edgeStream struct {
	rng  *rand.Rand
	n    int
	live [][2]graph.VertexID
	pos  map[[2]graph.VertexID]int
}

func newEdgeStream(seed int64, n int, edges [][2]graph.VertexID) *edgeStream {
	s := &edgeStream{
		rng:  rand.New(rand.NewSource(seed ^ 0x5eed)),
		n:    n,
		live: make([][2]graph.VertexID, len(edges)),
		pos:  make(map[[2]graph.VertexID]int, len(edges)),
	}
	for i, e := range edges {
		s.live[i] = edgeKey(e[0], e[1])
		s.pos[s.live[i]] = i
	}
	return s
}

func edgeKey(u, v graph.VertexID) [2]graph.VertexID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.VertexID{u, v}
}

func (s *edgeStream) endpoint() graph.VertexID {
	return s.live[s.rng.Intn(len(s.live))][s.rng.Intn(2)]
}

// next returns the next batch and applies it to the reference edge set.
func (s *edgeStream) next(size int) []delta.Op {
	ops := make([]delta.Op, 0, size)
	for len(ops) < size {
		if len(ops)%2 == 0 {
			i := s.rng.Intn(len(s.live))
			e := s.live[i]
			last := len(s.live) - 1
			s.live[i] = s.live[last]
			s.pos[s.live[i]] = i
			s.live = s.live[:last]
			delete(s.pos, e)
			ops = append(ops, delta.Op{Insert: false, U: e[0], V: e[1]})
			continue
		}
		u, v := s.endpoint(), s.endpoint()
		k := edgeKey(u, v)
		if _, dup := s.pos[k]; u == v || dup {
			continue
		}
		s.pos[k] = len(s.live)
		s.live = append(s.live, k)
		ops = append(ops, delta.Op{Insert: true, U: u, V: v})
	}
	return ops
}

// appendBody renders ops as the NDJSON body of one POST /edges.
func appendBody(dst []byte, ops []delta.Op) []byte {
	for _, op := range ops {
		name := "delete"
		if op.Insert {
			name = "insert"
		}
		dst = fmt.Appendf(dst, "{\"op\":%q,\"u\":%d,\"v\":%d}\n", name, op.U, op.V)
	}
	return dst
}
