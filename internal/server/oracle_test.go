package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/faultdb"
	"dualsim/internal/gen"
	"dualsim/internal/graph"
	"dualsim/internal/plan"
	"dualsim/internal/storage"
)

// The serving-path oracle. Every reply the HTTP API gives — a count, a whole
// or cut embeddings stream, a resume — must be what brute force says about
// the graph at the reply's data_epoch, whatever the engine pool, the cohort,
// the buffer, the encoding, live ingest, compaction and device faults did
// around it. Each seed draws one server configuration and one concurrent
// schedule of clients and one writer, runs it over HTTP, and checks every
// reply once the schedule is over.

// Fault schedules of a draw.
const (
	noFault   = "none"
	pages     = "transient-pages" // a few pages fail their first reads
	storm     = "storm"           // a seeded share of all reads fails
	permanent = "permanent"       // device loss after faultAt reads, healed at the first failure
)

var errDeviceLoss = errors.New("oracle: device lost")

// Client operations and writer steps.
const (
	opCount  = "count"  // a count
	opStream = "stream" // a whole embeddings stream
	opCut    = "cut"    // a stream cut at its limit and resumed from its token to completion
	opAcross = "across" // a cut stream resumed after the writer took op.step
	opRide   = "ride"   // a cohort count the writer ingests and compacts under

	stepBatch   = "batch"
	stepInvalid = "invalid"
	stepCompact = "compact"
)

// sop is one client operation.
type sop struct {
	query int    // index into sdraw.queries
	spec  string // as sent: the query's spelling, or a relabelled edge list
	kind  string
	limit int     // opCut, opAcross: the rows a cut stream stops at; 0 takes cut
	cut   float64 // the limit as a share of the query's count at epoch 0
	step  string  // opAcross: stepBatch or stepCompact, or both joined by "+"
}

// sdraw is one server configuration and schedule.
type sdraw struct {
	seed              int64
	kind              string
	g                 *graph.Graph
	compress, reorder bool
	pageSize          int
	engines, threads  int
	frames            int // the global buffer; 0 resolves frameFrac
	frameFrac         float64
	shareScan         bool
	riders            int
	mutable           bool
	compactEvery      int
	fault             string
	faultAt           int64
	latency           time.Duration // per page read, so a rider outlives a compaction
	misdirect         bool          // a fault schedule's draw ends on a misdirected read
	queries           []*graph.Query
	specs             []string // each query's own spelling
	clients           [][]sop
	steps             []string // the writer's, beside those the clients ask for
}

func (d sdraw) String() string {
	return fmt.Sprintf("seed=%d graph=%s(n=%d m=%d) specs=%q compress=%v reorder=%v page=%d engines=%d threads=%d "+
		"frames=%d/%.2f shareScan=%v riders=%d mutable=%v compactEvery=%d fault=%s@%d latency=%v misdirect=%v clients=%v steps=%v",
		d.seed, d.kind, d.g.NumVertices(), d.g.NumEdges(), d.specs, d.compress, d.reorder, d.pageSize, d.engines,
		d.threads, d.frames, d.frameFrac, d.shareScan, d.riders, d.mutable, d.compactEvery, d.fault, d.faultAt,
		d.latency, d.misdirect, d.clients, d.steps)
}

// edgeSpec spells q as an edge list, its vertices renamed by perm (nil: kept).
func edgeSpec(q *graph.Query, perm []int) string {
	parts := make([]string, 0, q.NumEdges())
	for _, e := range q.Edges() {
		a, b := e[0], e[1]
		if perm != nil {
			a, b = perm[a], perm[b]
		}
		parts = append(parts, fmt.Sprintf("%d-%d", a, b))
	}
	return strings.Join(parts, ",")
}

// exceeds reports whether q has more than 20 000 embeddings in g: a draw
// counts and streams each query several times.
func exceeds(g *graph.Graph, q *graph.Query) bool {
	n := 0
	graph.BruteForceEnumerate(g, q, graph.SymmetryBreak(q), func([]graph.VertexID) bool {
		n++
		return n <= 20_000
	})
	return n > 20_000
}

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([][2]graph.VertexID, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]graph.VertexID{graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))})
	}
	return graph.MustNewGraph(n, edges)
}

// drawServing draws seed's configuration and schedule.
func drawServing(seed int64) sdraw {
	rng := rand.New(rand.NewSource(seed))
	d := sdraw{seed: seed}
	n := 60 + rng.Intn(341)
	switch k := rng.Intn(10); {
	case k < 4:
		d.kind, d.g = "random", randomGraph(rng, n, n*(2+rng.Intn(4)))
	case k < 6:
		d.kind, d.g = "hubs", gen.PlantedHubs(n, 1+rng.Intn(4), 10+rng.Intn(40), rng.Int63())
	case k < 7:
		d.kind, d.g = "bipartite", gen.Bipartite(n/2, n-n/2, n*(2+rng.Intn(3)), rng.Int63())
	case k < 9:
		d.kind, d.g = "chunglu", gen.ChungLu(n, n*(2+rng.Intn(3)), 2.1+rng.Float64(), rng.Int63())
	default:
		n = 2 + rng.Intn(11)
		d.kind, d.g = "tiny", randomGraph(rng, n, rng.Intn(3*n))
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		var q *graph.Query
		var spec string
		for tries := 0; q == nil || tries < 8 && exceeds(d.g, q); tries++ {
			if j := rng.Intn(5); rng.Intn(3) > 0 {
				q, spec = graph.PaperQueries()[j], fmt.Sprintf("q%d", j+1)
			} else {
				qn := 2 + rng.Intn(7)
				edges := [][2]int{}
				for v := 1; v < qn; v++ {
					edges = append(edges, [2]int{rng.Intn(v), v})
				}
				for e := rng.Intn(qn); e > 0; e-- {
					if a, b := rng.Intn(qn), rng.Intn(qn); a != b {
						edges = append(edges, [2]int{a, b})
					}
				}
				q = graph.MustNewQuery("custom", qn, edges)
				spec = edgeSpec(q, nil)
			}
		}
		d.queries, d.specs = append(d.queries, q), append(d.specs, spec)
	}
	d.compress = rng.Intn(2) == 0
	d.pageSize = []int{64, 128, 128, 256, 256, 512, 1024, 4096}[rng.Intn(8)]
	d.engines, d.threads = 1+rng.Intn(3), 1+rng.Intn(2)
	d.frameFrac = 1.3 * rng.Float64() * rng.Float64()
	d.shareScan, d.riders = rng.Intn(2) == 0, 1+rng.Intn(4)
	if d.shareScan && rng.Intn(3) == 0 { // a full cohort on the least buffer: deep plans bounce
		d.riders, d.frameFrac = 4, 0
	}
	// Striped over the seed, so every short run of seeds has each fault
	// schedule with and without live ingest.
	d.fault = []string{noFault, pages, storm, permanent}[(seed/2)%4]
	d.mutable = seed%2 == 0 || rng.Intn(3) == 0
	d.reorder = !d.mutable && rng.Intn(2) == 0
	compactable := d.mutable && d.fault == noFault // a compaction needs the file itself
	if compactable && rng.Intn(4) > 0 {
		d.compactEvery = 2 + rng.Intn(8)
	}
	if compactable { // mostly below the graph, so that cut streams carry tokens
		d.frameFrac /= 2
	}
	if d.fault == permanent {
		d.faultAt = int64(rng.Intn(60))
	}
	if compactable && d.shareScan && rng.Intn(2) == 0 {
		d.latency, d.frameFrac = 250*time.Microsecond, d.frameFrac/4
	}
	for c := 2 + rng.Intn(5); c > 0; c-- {
		var ops []sop
		for i := 2 + rng.Intn(3); i > 0; i-- {
			op := sop{query: rng.Intn(len(d.queries)), cut: 0.6 + 0.4*rng.Float64()}
			op.spec = d.specs[op.query]
			if rng.Intn(2) == 0 {
				op.spec = edgeSpec(d.queries[op.query], rng.Perm(d.queries[op.query].NumVertices()))
			}
			kinds := []string{opCount, opCount, opStream, opCut}
			if d.mutable {
				kinds = append(kinds, opAcross, opAcross, opAcross)
			}
			if d.latency > 0 {
				kinds = append(kinds, opRide, opRide)
			}
			op.kind, op.step = kinds[rng.Intn(len(kinds))], stepBatch
			if compactable {
				op.step = []string{stepBatch, stepCompact, stepCompact, stepBatch + "+" + stepCompact}[rng.Intn(4)]
			}
			ops = append(ops, op)
		}
		d.clients = append(d.clients, ops)
	}
	for i := rng.Intn(4); d.mutable && i >= 0; i-- {
		steps := []string{stepBatch, stepBatch, stepBatch, stepInvalid}
		if compactable {
			steps = append(steps, stepCompact)
		}
		d.steps = append(d.steps, steps[rng.Intn(len(steps))])
	}
	d.misdirect = d.fault != noFault && rng.Intn(2) == 0
	return d
}

// sreply is one reply a client saw, checked once the schedule is over.
type sreply struct {
	op         sop
	chain      int // a fresh stream and the resumes of its tokens share a chain
	status     int
	body       string        // a refusal's body
	qr         QueryResponse // a count reply, or a stream's trailer
	stream     streamResult
	token      string // the resume token redeemed
	tokenEpoch uint64
	trace      string // the X-Dualsim-Trace-Id header
	ctype      string // the Content-Type header
}

// soracle is one draw's server, its writer's record and its clients' replies.
type soracle struct {
	t       *testing.T
	d       sdraw
	cov     *coverage
	s       *Server
	fdb     *faultdb.DB
	base    *graph.Graph // the file's graph, in file IDs
	nudges  chan nudge
	running chan struct{} // closed once every client is done

	mu       sync.Mutex
	replies  []sreply
	chains   int
	batches  map[uint64][]EdgeOp // the batch each IngestResponse.Epoch names
	epoch    uint64              // the writer's latest
	explicit uint64              // compactions the writer asked for that folded
	delta    int                 // overlay vertices after the last batch, 0 after a fold
	graphs   map[uint64]*graph.Graph
	want     map[[2]uint64]uint64 // (epoch, query) -> brute-force count
}

// nudge is work a client hands the writer, which closes done once it is done.
type nudge struct {
	do   func(rng *rand.Rand)
	done chan struct{}
}

// errorf reports a failure from a client or the writer goroutine.
func (o *soracle) errorf(format string, args ...any) {
	o.t.Errorf("%v:\n  "+format, append([]any{o.d}, args...)...)
}

// post sends one query with ?profile=1 and records what came back.
func (o *soracle) post(op sop, req QueryRequest, chain int) sreply {
	r := sreply{op: op, chain: chain, token: req.ResumeToken}
	if req.ResumeToken != "" {
		p, _ := o.s.tokens.decode(req.ResumeToken)
		r.tokenEpoch = p.Epoch
	}
	resp, err := postQueryProfile(o.t, o.s.Addr(), req)
	if err != nil {
		o.errorf("%s: %v", op.spec, err)
		return r
	}
	defer resp.Body.Close()
	r.status, r.trace, r.ctype = resp.StatusCode, resp.Header.Get("X-Dualsim-Trace-Id"), resp.Header.Get("Content-Type")
	switch {
	case r.status != http.StatusOK:
		b, _ := io.ReadAll(resp.Body)
		r.body = string(b)
	case req.Mode == "embeddings":
		r.stream = readResumableStream(o.t, resp.Body)
		r.qr = r.stream.trailer
	default:
		if err := json.NewDecoder(resp.Body).Decode(&r.qr); err != nil {
			o.errorf("%s: decoding the reply: %v", op.spec, err)
		}
	}
	o.mu.Lock()
	o.replies = append(o.replies, r)
	o.mu.Unlock()
	return r
}

// failed reports a refusal or a failed stream the schedule may retry: only a
// faulted draw may fail, and a permanent loss is healed at its first failure.
func (o *soracle) failed(r sreply) bool {
	if o.d.fault == noFault || r.status == http.StatusOK && (r.stream.done || r.stream.errMsg == "") ||
		r.status != http.StatusOK && r.status != http.StatusInternalServerError && r.status != http.StatusTooManyRequests {
		return false
	}
	o.fdb.Heal()
	time.Sleep(time.Millisecond) // past the test breaker's cooldown
	return true
}

func (o *soracle) count(op sop) {
	for attempt := 0; attempt < 20 && o.failed(o.post(op, QueryRequest{Query: op.spec}, 0)); attempt++ {
	}
}

// ride runs a cohort count that the writer ingests and compacts under once
// it has boarded. The writer runs the exchange, so the overlay is empty when
// the rider is admitted (a rider serves the file alone).
func (o *soracle) ride(op sop) {
	o.exclusive(func(rng *rand.Rand) {
		for o.s.compacting.Load() {
			time.Sleep(time.Millisecond)
		}
		o.take(rng, stepCompact)
		g0, done := o.s.current(), make(chan sreply, 1)
		go func() { done <- o.post(op, QueryRequest{Query: op.spec}, 0) }()
		for deadline := time.Now().Add(time.Second); g0.sched.Stats().ActiveRiders == 0; time.Sleep(50 * time.Microsecond) {
			if len(done) > 0 || time.Now().After(deadline) {
				<-done
				return
			}
		}
		o.take(rng, stepBatch+"+"+stepCompact)
		if r := <-done; r.status == http.StatusOK && o.s.current() != g0 {
			o.cov.add("rider across compaction")
		}
	})
}

// stream runs one stream to completion: resumed from its token after a cut
// or a failure, restarted after a 409 or without a token. between, if set,
// runs once, after the first cut.
func (o *soracle) stream(op sop, between func()) {
	o.mu.Lock()
	o.chains++
	chain := o.chains
	o.mu.Unlock()
	req := QueryRequest{Query: op.spec, Mode: "embeddings"}
	if op.kind != opStream {
		req.Limit = op.limit
	}
	var c0 uint64  // compactions when the token was handed out
	var how string // how the stream came to be resumed
	for attempt := 0; attempt < 30; attempt++ {
		r := o.post(op, req, chain)
		switch {
		case r.status == http.StatusOK && r.stream.done && !r.qr.Truncated:
			if req.ResumeToken != "" {
				o.cov.add(how)
				if o.s.compactions.Load() > c0 {
					o.cov.add("resumed across a compaction")
				}
			}
			return
		case r.status == http.StatusOK && r.qr.Truncated:
			req.Limit, req.ResumeToken, c0, how = 0, r.qr.ResumeToken, o.s.compactions.Load(), "cut and resumed"
			if between != nil {
				between()
				between = nil
			}
		case r.status == http.StatusConflict && req.ResumeToken != "":
			o.cov.add("409 resume")
			req.ResumeToken = ""
		case o.failed(r):
			if r.stream.lastToken != "" {
				req.ResumeToken, c0, how = r.stream.lastToken, o.s.compactions.Load(), "resumed after a fault"
			}
		default:
			return // an illegal reply: the check names it
		}
		if req.ResumeToken == "" { // a restart is a chain of its own
			o.mu.Lock()
			o.chains++
			chain = o.chains
			o.mu.Unlock()
		}
	}
}

// across runs a stream the writer cuts in: the writer runs the whole
// exchange, so that no other write lands between the cut and the resume.
func (o *soracle) across(op sop) {
	o.exclusive(func(rng *rand.Rand) {
		if op.step == stepCompact {
			o.take(rng, stepBatch) // an overlay for the compaction to fold
		}
		o.stream(op, func() { o.take(rng, op.step) })
	})
}

// exclusive has the writer run do, and waits until it has.
func (o *soracle) exclusive(do func(rng *rand.Rand)) {
	n := nudge{do, make(chan struct{})}
	o.nudges <- n
	<-n.done
}

// writer takes the draw's steps, one after each client request, and every
// step a client asks for, until the clients are done.
func (o *soracle) writer(progress <-chan struct{}) {
	rng := rand.New(rand.NewSource(^o.d.seed))
	steps := o.d.steps
	for {
		select {
		case n := <-o.nudges:
			n.do(rng)
			close(n.done)
			continue
		case <-progress:
		case <-o.running:
			if len(steps) == 0 {
				return
			}
		}
		if len(steps) > 0 {
			o.take(rng, steps[0])
			steps = steps[1:]
		}
	}
}

// take sends one step: a valid batch of inserts and deletes (or one with a
// bad op, which must leave the epoch where it was), or a compaction.
func (o *soracle) take(rng *rand.Rand, step string) {
	o.sawBackground()
	defer o.sawBackground()
	n := o.d.g.NumVertices()
	for _, st := range strings.Split(step, "+") {
		switch {
		case st == stepCompact:
			status, body, err := postCompact(o.s.Addr())
			var cr CompactResponse
			_ = json.Unmarshal([]byte(body), &cr)
			switch {
			case err != nil || status != http.StatusOK && status != http.StatusConflict:
				o.errorf("compact: status %d, err %v: %s", status, err, body)
			case status == http.StatusOK && cr.Epoch != o.epoch:
				o.errorf("compact at epoch %d answered epoch %d", o.epoch, cr.Epoch)
			case cr.Compacted && o.delta == 0:
				o.errorf("compact folded an empty overlay")
			case !cr.Compacted && o.delta > 0 && o.d.compactEvery == 0:
				o.errorf("compact left an overlay of %d vertices unfolded", o.delta)
			case cr.Compacted:
				o.explicit++
				if !o.done() {
					o.cov.add("explicit compaction mid-load")
				}
			default:
				o.cov.add("empty compaction")
			}
			if status == http.StatusOK {
				o.delta = 0
				if v := o.s.reg.Snapshot().Gauges["dualsim_delta_overlay_vertices"]; v != 0 {
					o.errorf("%v overlay vertices after a fold", v)
				}
			}
		case n < 2:
		default:
			ops := make([]EdgeOp, 1+rng.Intn(6))
			for i := range ops {
				u := rng.Intn(n)
				ops[i] = EdgeOp{U: int64(u), V: int64((u + 1 + rng.Intn(n-1)) % n)}
				if rng.Intn(2) == 0 {
					ops[i].Op = "delete"
				}
			}
			if st == stepInvalid {
				bad := []EdgeOp{{U: 1, V: 1}, {U: 0, V: int64(n)}, {Op: "upsert", U: 0, V: 1}}[rng.Intn(3)]
				ops[rng.Intn(len(ops))] = bad
				resp := postEdges(o.t, o.s.Addr(), ops)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest || o.s.dataEpoch() != o.epoch {
					o.errorf("invalid batch %v: status %d, epoch %d -> %d", ops, resp.StatusCode, o.epoch, o.s.dataEpoch())
				}
				o.cov.add("invalid batch")
				continue
			}
			resp := postEdges(o.t, o.s.Addr(), ops)
			var ir IngestResponse
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err := json.Unmarshal(b, &ir); err != nil || resp.StatusCode != http.StatusOK || ir.Epoch != o.epoch+1 {
				o.errorf("batch %v at epoch %d: status %d, %s", ops, o.epoch, resp.StatusCode, b)
				continue
			}
			o.mu.Lock()
			o.epoch, o.batches[ir.Epoch], o.delta = ir.Epoch, ops, ir.DeltaVertices
			o.mu.Unlock()
		}
	}
}

// sawBackground books a compaction the writer did not ask for while the
// clients run.
func (o *soracle) sawBackground() {
	if o.s.compactions.Load() > o.explicit && !o.done() {
		o.cov.add("background compaction mid-load")
	}
}

func (o *soracle) done() bool {
	select {
	case <-o.running:
		return true
	default:
		return false
	}
}

// books checks what /stats and /metrics report against the schedule: the
// requests sent, the resumes redeemed and refused as stale, the batches and
// ops applied, the data epoch, the compactions and the overlay left over.
func (o *soracle) books() {
	t, addr := o.t, o.s.Addr()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metric := func(name string) uint64 {
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindSubmatch(text)
		if m == nil {
			t.Fatalf("%v:\n  /metrics lacks %s", o.d, name)
		}
		v, _ := strconv.ParseFloat(string(m[1]), 64)
		return uint64(v)
	}
	var resumed, stale, ops, tokens uint64
	for _, r := range o.replies {
		switch {
		case r.token != "" && r.status == http.StatusOK:
			resumed++
		case r.token != "" && r.status == http.StatusConflict:
			stale++
		}
		if r.qr.ResumeToken != "" || r.stream.lastToken != "" {
			tokens++
		}
	}
	for _, b := range o.batches {
		ops += uint64(len(b))
	}
	st, n := getStats(t, addr), uint64(len(o.replies))
	books := map[string][2]uint64{
		"/stats requests": {st.Requests, n}, "dualsim_server_requests_total": {metric("dualsim_server_requests_total"), n},
		"/stats resumes_ok": {st.ResumesOK, resumed}, "dualsim_resumes_ok_total": {metric("dualsim_resumes_ok_total"), resumed},
		"stale resumes":     {metric(`dualsim_resumes_total{reason="stale_epoch"}`), stale},
		"/stats data_epoch": {st.DataEpoch, o.epoch}, "dualsim_data_epoch": {metric("dualsim_data_epoch"), o.epoch},
		"checkpoints taken": {min(tokens, st.CheckpointsTaken), tokens},
	}
	if o.d.mutable {
		books["/stats ingest batches"] = [2]uint64{st.Ingest.Batches, uint64(len(o.batches))}
		books["dualsim_ingest_batches_total"] = [2]uint64{metric("dualsim_ingest_batches_total"), uint64(len(o.batches))}
		books["/stats ingest ops"] = [2]uint64{st.Ingest.Ops, ops}
		books["dualsim_ingest_ops_total"] = [2]uint64{metric("dualsim_ingest_ops_total"), ops}
		books["compactions"] = [2]uint64{metric("dualsim_compactions_total"), st.Ingest.Compactions}
		if st.Ingest.Compactions < o.explicit || o.d.compactEvery == 0 && st.Ingest.Compactions != o.explicit {
			t.Fatalf("%v:\n  %d compactions, %d of them explicit", o.d, st.Ingest.Compactions, o.explicit)
		}
		if o.delta == 0 || o.d.compactEvery == 0 { // else a background fold may have drained it
			books["/stats ingest delta_vertices"] = [2]uint64{uint64(st.Ingest.DeltaVertices), uint64(o.delta)}
		}
	}
	for k, v := range books {
		if v[0] != v[1] {
			t.Errorf("%v:\n  %s is %d, the schedule says %d", o.d, k, v[0], v[1])
		}
	}
	for _, family := range []string{"dualsim_server_rejected_total", "dualsim_server_queue_depth", "dualsim_server_queue_wait_us",
		"dualsim_plan_cache_hits_total", "dualsim_plan_cache_hit_ratio", "dualsim_runs_total"} {
		if !strings.Contains(string(text), "\n"+family) {
			t.Errorf("%v:\n  /metrics lacks %s", o.d, family)
		}
	}
}

// graphAt is the file's graph plus every batch up to epoch.
func (o *soracle) graphAt(epoch uint64) *graph.Graph {
	if g, ok := o.graphs[epoch]; ok {
		return g
	}
	edges := map[[2]graph.VertexID]bool{}
	for _, e := range o.base.EdgeList() {
		edges[[2]graph.VertexID{min(e[0], e[1]), max(e[0], e[1])}] = true
	}
	for ep := uint64(1); ep <= epoch; ep++ {
		for _, op := range o.batches[ep] {
			edges[[2]graph.VertexID{graph.VertexID(min(op.U, op.V)), graph.VertexID(max(op.U, op.V))}] = op.Op != "delete"
		}
	}
	var list [][2]graph.VertexID
	for e, ok := range edges {
		if ok {
			list = append(list, e)
		}
	}
	o.graphs[epoch] = graph.MustNewGraph(o.base.NumVertices(), list)
	return o.graphs[epoch]
}

func (o *soracle) wantCount(epoch uint64, query int) uint64 {
	k := [2]uint64{epoch, uint64(query)}
	if c, ok := o.want[k]; ok {
		return c
	}
	o.want[k] = graph.CountOccurrences(o.graphAt(epoch), o.d.queries[query])
	return o.want[k]
}

// occurrences checks rows against the query as spelled at epoch: each an
// embedding, none twice. It adds their occurrences (edge images, the same for
// every automorphic row) to seen.
func (o *soracle) occurrences(r sreply, epoch uint64, seen map[string]bool) {
	q, _ := graph.ParseQuerySpec(r.op.spec)
	g := o.graphAt(epoch)
	mine := map[string]bool{}
	edges, key := make([]uint64, q.NumEdges()), make([]byte, 0, 8*q.NumEdges())
	for _, row := range r.stream.rows {
		for i, e := range q.Edges() {
			a, b := row[e[0]], row[e[1]]
			if !g.HasEdge(a, b) || len(row) != q.NumVertices() {
				o.t.Fatalf("%v:\n  %s row %v is not an embedding at epoch %d", o.d, r.op.spec, row, epoch)
			}
			edges[i] = uint64(min(a, b))<<32 | uint64(max(a, b))
		}
		slices.Sort(edges)
		key = key[:0]
		for _, e := range edges {
			key = binary.LittleEndian.AppendUint64(key, e)
		}
		k := string(key)
		if mine[k] {
			o.t.Fatalf("%v:\n  %s streamed the occurrence of row %v twice in one reply", o.d, r.op.spec, row)
		}
		mine[k], seen[k] = true, true
	}
}

var staleEpoch = regexp.MustCompile(`current epoch is (\d+)`)

// check runs the schedule over HTTP and checks every reply.
func (o *soracle) check() {
	t, d := o.t, o.d
	for _, r := range o.replies {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%v:\n  %s %s (token epoch %d) status %d %s: "+format,
				append([]any{d, r.op.kind, r.op.spec, r.tokenEpoch, r.status, r.body}, args...)...)
		}
		if r.trace == "" || r.status == http.StatusOK && r.op.kind != opCount && r.op.kind != opRide &&
			!strings.Contains(r.ctype, "ndjson") {
			fail("trace header %q, Content-Type %q", r.trace, r.ctype)
		}
		switch {
		case r.status == http.StatusConflict && r.token != "":
			m := staleEpoch.FindStringSubmatch(r.body)
			if m == nil {
				fail("a 409 must name the current epoch")
			}
			if e, _ := strconv.ParseUint(m[1], 10, 64); e <= r.tokenEpoch {
				fail("a 409 must name a current epoch later than the token's")
			}
		case r.status == http.StatusOK && r.qr.Done:
			want := o.wantCount(r.qr.DataEpoch, r.op.query)
			if r.qr.DataEpoch > 0 {
				o.cov.add("answered a later epoch")
			}
			if r.qr.SharedPages > 0 {
				o.cov.add("rode the cohort")
			}
			switch {
			case r.qr.Truncated:
				if r.qr.Rows != uint64(r.op.limit) || len(r.stream.rows) != r.op.limit {
					fail("a stream cut at %d has %d rows (trailer %d)", r.op.limit, len(r.stream.rows), r.qr.Rows)
				}
			case r.qr.Count != want || r.qr.Internal+r.qr.External != want:
				fail("count %d (%d + %d) at epoch %d, brute force %d", r.qr.Count, r.qr.Internal, r.qr.External, r.qr.DataEpoch, want)
			case r.token != "" && (r.qr.DataEpoch != r.tokenEpoch || !r.qr.Resumed):
				fail("a resume answered at epoch %d (resumed=%v)", r.qr.DataEpoch, r.qr.Resumed)
			case r.op.kind != opCount && r.op.kind != opRide && r.token == "" &&
				(len(r.stream.rows) != int(want) || r.qr.Rows != want):
				fail("a whole stream of %d rows (trailer %d), count %d", len(r.stream.rows), r.qr.Rows, want)
			}
			if r.op.kind != opCount && r.op.kind != opRide {
				o.occurrences(r, r.qr.DataEpoch, map[string]bool{})
			}
			// The reply, its header and its profile name one trace; a run
			// that finished was attributed.
			if p := r.qr.Profile; p == nil || r.qr.TraceID != r.trace || p.TraceID != r.trace ||
				!r.qr.Truncated && (p.Windows == 0 || p.ExecNS <= 0 || p.SharedPages != r.qr.SharedPages) {
				fail("trace %q, reply trace %q, shared_pages %d, profile %+v", r.trace, r.qr.TraceID, r.qr.SharedPages, p)
			}
		case d.fault == noFault:
			fail("a fault-free draw serves every request (stream error %q)", r.stream.errMsg)
		case r.status == http.StatusTooManyRequests:
			if !strings.Contains(r.body, "circuit breaker open") {
				fail("a 429 while the breaker is closed")
			}
		default:
			if msg := r.body + r.stream.errMsg; !strings.Contains(msg, errDeviceLoss.Error()) &&
				!strings.Contains(msg, faultdb.ErrInjected.Error()) {
				fail("an untyped failure under %s: %q", d.fault, r.stream.errMsg)
			}
		}
	}
	// A resumed chain completes with every occurrence streamed at least once.
	for chain := 1; chain <= o.chains; chain++ {
		var attempts []sreply
		for _, r := range o.replies {
			if r.chain == chain {
				attempts = append(attempts, r)
			}
		}
		if len(attempts) < 2 || attempts[len(attempts)-1].qr.Truncated || !attempts[len(attempts)-1].qr.Done {
			continue
		}
		last, seen := attempts[len(attempts)-1], map[string]bool{}
		for _, r := range attempts {
			o.occurrences(r, last.qr.DataEpoch, seen)
		}
		if want := o.wantCount(last.qr.DataEpoch, last.op.query); uint64(len(seen)) != want {
			t.Fatalf("%v:\n  %s: %d attempts streamed %d occurrences, brute force %d at epoch %d",
				d, last.op.spec, len(attempts), len(seen), want, last.qr.DataEpoch)
		}
	}
}

// runServing builds the draw's database and server, runs the schedule and
// checks it, the page ledger, the plan cache, the server's books, the file
// left on disk and a clean shutdown.
func runServing(t *testing.T, d sdraw, cov *coverage) *soracle {
	t.Helper()
	o := &soracle{t: t, d: d, cov: cov, nudges: make(chan nudge), running: make(chan struct{}),
		batches: map[uint64][]EdgeOp{}, graphs: map[uint64]*graph.Graph{}, want: map[[2]uint64]uint64{}}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.db")
	if _, err := storage.BuildFromGraph(path, d.g, storage.BuildOptions{PageSize: d.pageSize, TempDir: dir,
		Compress: d.compress, SkipReorder: !d.reorder}); err != nil {
		t.Fatalf("%v: build: %v", d, err)
	}
	db, err := storage.Open(path)
	if err != nil {
		t.Fatalf("%v: open: %v", d, err)
	}
	defer db.Close()
	o.base = d.g
	if d.reorder {
		o.base, _ = graph.ReorderByDegree(d.g)
	}
	// The floor fits every query's levels and the spans batches may grow.
	maxSpan, maxK, maxN := 0, 0, 0
	for v := 0; v < db.NumVertices(); v++ {
		first, last := db.SpanOf(graph.VertexID(v))
		maxSpan = max(maxSpan, int(last-first)+1)
	}
	if d.mutable { // a compaction writes the lists the batches grew
		maxSpan += 2
	}
	for _, q := range d.queries {
		p, err := plan.Prepare(q, plan.Options{})
		if err != nil {
			t.Fatalf("%v: prepare: %v", d, err)
		}
		maxK, maxN = max(maxK, p.K), max(maxN, q.NumVertices())
	}
	floor := max(2*d.threads+8, maxK*maxSpan)
	if maxK >= 4 || maxN >= 6 { // a large query over many windows takes seconds: hold the graph
		d.frameFrac = max(d.frameFrac, 1)
	}
	if d.frames == 0 {
		d.frames = d.engines * (floor + int(d.frameFrac*float64(max(0, db.NumPages()+maxK*maxSpan-floor))))
	}
	if d.frames/d.engines-db.NumPages() >= (maxK-1)*maxSpan {
		cov.add("resident")
	}
	o.d = d // as resolved, for failure messages
	var base core.Database = db
	if d.fault != noFault {
		o.fdb = faultdb.Wrap(db, faultdb.Options{Seed: d.seed})
		base = o.fdb
		rng := rand.New(rand.NewSource(d.seed))
		switch d.fault {
		case pages:
			o.fdb.TransientPages(1+rng.Intn(3), storage.PageID(rng.Intn(db.NumPages())), storage.PageID(rng.Intn(db.NumPages())))
		case storm:
			o.fdb.FailRandom(0.05+0.2*rng.Float64(), nil)
		case permanent:
			o.fdb.FailAfter(d.faultAt, errDeviceLoss)
		}
	}
	opts := core.Options{Threads: d.threads, BufferFrames: d.frames, PerPageLatency: d.latency}
	if d.fault != noFault {
		opts.Retry = &storage.RetryPolicy{MaxRetries: 40, CRCRetries: 1, Sleep: func(time.Duration) {}}
	}
	for _, ops := range d.clients {
		for i := range ops {
			if ops[i].limit == 0 {
				ops[i].limit = max(1, int(ops[i].cut*float64(o.wantCount(0, ops[i].query))))
			}
		}
	}
	goroutines := runtime.NumGoroutine()
	o.s, err = New(base, Config{Engines: d.engines, QueueDepth: len(d.clients), QueueWait: time.Minute,
		RowLimit: 1 << 30, ShareScan: d.shareScan, CohortMaxRiders: d.riders, Mutable: d.mutable,
		CompactEvery: d.compactEvery, Engine: opts})
	if err != nil {
		t.Fatalf("%v: %v", d, err)
	}
	br := poolBreaker
	br.cooldown = time.Millisecond
	o.s.br = newBreaker(br)
	if err := o.s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer o.s.Close()

	progress := make(chan struct{}, 1)
	var clients, writer sync.WaitGroup
	writer.Add(1)
	go func() { defer writer.Done(); o.writer(progress) }()
	for _, ops := range d.clients {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for _, op := range ops {
				if op.spec != d.specs[op.query] {
					cov.add("relabelled spelling")
				}
				switch op.kind {
				case opCount:
					o.count(op)
				case opRide:
					o.ride(op)
				case opAcross:
					o.across(op)
				default:
					o.stream(op, nil)
				}
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}()
	}
	clients.Wait()
	close(o.running)
	writer.Wait()
	if t.Failed() {
		return o
	}
	o.check()

	// The page ledger: every page read belongs to one reply's profile or to
	// the cohort's sweep. Sweep reads settle just after the last rider leaves.
	if d.fault == noFault {
		var attributed uint64
		for _, r := range o.replies {
			if r.qr.Profile != nil {
				attributed += r.qr.Profile.PagesRead
			}
		}
		var c map[string]uint64
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			c = o.s.reg.Snapshot().Counters
			if attributed+c["dualsim_sweep_pages_read_total"] == c["dualsim_pages_read_total"] || time.Now().After(deadline) {
				break
			}
		}
		if attributed+c["dualsim_sweep_pages_read_total"] != c["dualsim_pages_read_total"] {
			t.Fatalf("%v:\n  replies attributed %d pages and the sweep %d, dualsim_pages_read_total is %d",
				d, attributed, c["dualsim_sweep_pages_read_total"], c["dualsim_pages_read_total"])
		}
	}
	// One plan-cache entry per query, however it was spelled.
	classes := map[string]bool{}
	for _, ops := range d.clients {
		for _, op := range ops {
			code, _ := graph.CanonicalCode(d.queries[op.query])
			classes[code] = true
		}
	}
	if cs := o.s.cache.Stats(); cs.Size != len(classes) || cs.Misses != uint64(len(classes)) {
		t.Fatalf("%v:\n  plan cache %+v for %d query classes", d, cs, len(classes))
	}
	// A clean shutdown: no compaction running, every engine of the live
	// generation idle and unpinned, no waiter, no rider, and after Close no
	// goroutine the server started.
	for deadline := time.Now().Add(10 * time.Second); o.s.compacting.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	o.books()
	g := o.s.current()
	var idle []*core.Engine
	for len(idle) < d.engines {
		select {
		case e := <-g.slots:
			idle = append(idle, e)
		case <-time.After(10 * time.Second):
			t.Fatalf("%v:\n  %d of %d engines came back to the pool", d, len(idle), d.engines)
		}
	}
	for _, e := range idle {
		if e.PinnedFrames() != 0 {
			t.Fatalf("%v:\n  an idle engine holds %d pinned frames", d, e.PinnedFrames())
		}
		g.slots <- e
	}
	if o.s.waiters.Load() != 0 || g.sched != nil && g.sched.Stats().ActiveRiders != 0 {
		t.Fatalf("%v:\n  %d waiters and riders on board after the schedule", d, o.s.waiters.Load())
	}
	// Connections the client dialed but sent nothing on would hold Drain's
	// listener shutdown for seconds.
	http.DefaultClient.CloseIdleConnections()
	if err := o.s.Drain(context.Background()); err != nil {
		t.Fatalf("%v: Drain: %v", d, err)
	}
	o.s.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v:\n  %d goroutines after Close, %d before New", d, runtime.NumGoroutine(), goroutines)
		}
	}
	// The file on disk carries the last epoch stamped into it, whole.
	if d.fault == noFault {
		re, err := storage.Open(path)
		if err != nil {
			t.Fatalf("%v: re-open: %v", d, err)
		}
		defer re.Close()
		if err := re.VerifyIntegrity(); err != nil || re.Epoch() != o.epoch {
			t.Fatalf("%v:\n  the file on disk is at epoch %d, the schedule at %d: %v", d, re.Epoch(), o.epoch, err)
		}
	}
	if d.misdirect && db.NumPages() > 1 {
		o.misdirected(db.NumPages(), opts)
	}
	if o.s.sm.cohortFallbacks.Value() > 0 {
		cov.add("bounced rider")
	}
	for _, k := range []string{"graph:" + d.kind, "fault:" + d.fault, fmt.Sprintf("engines=%d", d.engines),
		fmt.Sprintf("threads=%d", d.threads), fmt.Sprintf("compress=%v", d.compress), fmt.Sprintf("shareScan=%v", d.shareScan),
		fmt.Sprintf("mutable=%v", d.mutable), fmt.Sprintf("compactEvery>0=%v", d.compactEvery > 0)} {
		cov.add(k)
	}
	return o
}

// misdirected serves one count from a fresh server, nothing resident, whose
// every read of a drawn page p gets another page's intact image, which no
// checksum sees: the reply must be a 500 naming page p, never a count.
func (o *soracle) misdirected(pages int, opts core.Options) {
	rng := rand.New(rand.NewSource(^o.d.seed))
	p := rng.Intn(pages)
	o.fdb.Heal()
	o.fdb.Misdirect(storage.PageID(p), storage.PageID((p+1+rng.Intn(pages-1))%pages))
	s := newFaultServer(o.t, o.fdb, Config{Engines: 1, Engine: opts})
	resp, err := postQuery(o.t, s.Addr(), QueryRequest{Query: o.d.specs[0]})
	if err != nil {
		o.t.Fatalf("%v: misdirected query: %v", o.d, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), fmt.Sprintf("page %d corrupt", p)) {
		o.t.Fatalf("%v:\n  page %d read as another page's image: status %d %s; want a 500 naming page %d",
			o.d, p, resp.StatusCode, body, p)
	}
	o.cov.add("misdirected read")
}

// coverage counts the dimensions draws reached.
type coverage struct {
	mu sync.Mutex
	m  map[string]int
}

func (c *coverage) add(k string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]int{}
	}
	c.m[k]++
}

// require fails t unless every key was reached.
func (c *coverage) require(t *testing.T, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if c.m[k] == 0 {
			t.Errorf("no draw reached %q (coverage %v)", k, c.m)
		}
	}
}

// Seed sets: tier-1 runs seeds 1..servingSeeds and must reach every coverage
// key; with SOAK_SECONDS set, fresh seeds run until the time box closes.
const servingSeeds = 50

// servingRaceSeeds is the set run under -race, where make stress repeats it
// twenty times: tier-1 seeds that took at most 0.25 s each under -race on two
// cores, chosen to reach every fault schedule, live ingest with explicit
// compactions, 409 resumes, a bounced rider and riders a compaction swaps
// the file under (seed 48).
var servingRaceSeeds = []int64{1, 2, 4, 11, 16, 22, 31, 34, 37, 48}

// TestServingOracle is the serving-path oracle: every seed draws a graph
// (random, planted hubs, bipartite, Chung-Lu or tiny) with 1–3 queries (q1–q5
// or random connected ones of up to 8 vertices), a build (plain or
// compressed, 64- to 4096-byte pages), a server (1–3 engines, 1–2 threads, a
// buffer from the floor to past the page count, a cohort of 1–4 riders or
// none, live ingest with or without background compaction) and a fault
// schedule (none, transient pages or a read storm under a retry budget, or a
// permanent device loss healed at its first failure; half the faulted draws
// end on a fresh server whose reads of one page are misdirected), then 2–6 clients
// sending counts, whole streams, streams cut at a limit and resumed — some
// across a writer's batch or compaction — and cohort counts the writer
// ingests and compacts under, half of them spelled as relabelled edge lists,
// beside one writer sending valid and invalid batches and compactions. Every
// reply must be brute force on the graph at its data_epoch. Reproduce a
// failing seed with
//
//	go test ./internal/server -run 'TestServingOracle/seed=N$'
func TestServingOracle(t *testing.T) {
	soak := 0
	if v := os.Getenv("SOAK_SECONDS"); v != "" {
		var err error
		if soak, err = strconv.Atoi(v); err != nil {
			t.Fatalf("bad SOAK_SECONDS %q: %v", v, err)
		}
	}
	var seeds []int64
	for _, m := range regexp.MustCompile(`seed=(\d+)`).FindAllStringSubmatch(flag.Lookup("test.run").Value.String(), -1) {
		n, _ := strconv.ParseInt(m[1], 10, 64)
		seeds = append(seeds, n)
	}
	cov := &coverage{}
	run := func(s int64) bool {
		return t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) { runServing(t, drawServing(s), cov) })
	}
	switch {
	case len(seeds) > 0:
		for _, s := range seeds {
			run(s)
		}
	case soak > 0:
		deadline := time.Now().Add(time.Duration(soak) * time.Second)
		base := servingSeeds + 1 + time.Now().UnixNano()%1_000_000*1000
		s := base
		for ; time.Now().Before(deadline) && run(s); s++ {
		}
		t.Logf("soak: seeds %d..%d", base, s)
	default:
		seeds = servingRaceSeeds
		if !raceEnabled {
			seeds = nil
			for s := int64(1); s <= servingSeeds; s++ {
				seeds = append(seeds, s)
			}
		}
		for _, s := range seeds {
			run(s)
		}
		if t.Failed() || raceEnabled {
			return
		}
		t.Logf("coverage over %d seeds: %v", len(seeds), cov.m)
		cov.require(t, "graph:random", "graph:hubs", "graph:bipartite", "graph:chunglu", "graph:tiny",
			"fault:none", "fault:"+pages, "fault:"+storm, "fault:"+permanent, "engines=1", "engines=2", "engines=3",
			"threads=1", "threads=2", "compress=true", "compress=false", "shareScan=true", "shareScan=false",
			"mutable=true", "mutable=false", "compactEvery>0=true", "resident", "relabelled spelling",
			"cut and resumed", "409 resume", "resumed across a compaction", "invalid batch",
			"explicit compaction mid-load", "background compaction mid-load", "rider across compaction", "bounced rider",
			"misdirected read")
	}
}
