package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"dualsim/internal/graph"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if v[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 0.9); got != 100 {
		t.Errorf("p90 of 11 = %v, want 100", got)
	}
	if median(nil) != 0 || percentile(nil, 0.9) != 0 || mean(nil) != 0 {
		t.Error("empty input must read 0")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}

	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) and
	// statistics.quantiles([3.1, 2.9, 3.0, 3.4], n=4).
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3.1, 2.9, 3.0, 3.4})
	if !near(q1, 2.925) || !near(q2, 3.05) || !near(q3, 3.325) {
		t.Errorf("quartiles of four = %v %v %v, want 2.925 3.05 3.325", q1, q2, q3)
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.90, true}, {99, 0.90, false}, {1000, 0.99, true}, {999, 0.99, false}, {200, 0.95, true}, {0, 0.90, false},
	} {
		if got := supportsPercentile(c.n, c.p); got != c.want {
			t.Errorf("supportsPercentile(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.request", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "server.queue", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "core.exec", StartNS: 20, EndNS: 70}, // overlaps span 2 by 10
		{ID: 4, Parent: 3, Name: "buffer.io_wait", StartNS: 25, EndNS: 45},
		{ID: 5, Parent: 1, Name: "core.late", StartNS: 90, EndNS: 140}, // clipped to the parent
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - (20 + 40 + 10), 2: 20, 3: 30, 4: 20, 5: 50}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	layers := layerSelfNS(spans)
	if layers["core"] != 80 || layers["client"] != 30 || layers["buffer"] != 20 || layers["server"] != 20 {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestSpanRecorder(t *testing.T) {
	var off *spanRecorder
	if off.add(0, "r", "x", time.Now(), time.Now()) != 0 || off.snapshot() != nil {
		t.Error("a nil recorder must record nothing")
	}
	rec := newSpanRecorder()
	root := rec.add(0, "r1", "client.request", rec.t0, rec.t0.Add(time.Millisecond))
	rec.add(root, "r1", "core.exec", rec.t0, rec.t0.Add(time.Microsecond))
	path := t.TempDir() + "/trace.jsonl"
	if err := rec.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var last span
	if len(lines) != 2 || json.Unmarshal([]byte(lines[1]), &last) != nil || last.Parent != root || last.Request != "r1" {
		t.Errorf("trace file = %q", raw)
	}
}

// scheduleBytes is everything a client of w would send in one cycle.
func scheduleBytes(w *workload, f *fixture) []byte {
	var b bytes.Buffer
	for client := range w.Clients {
		for _, r := range buildCycle(w, f, client) {
			b.WriteString(r.Class + " " + r.Body + "\n")
		}
	}
	return b.Bytes()
}

func opBytes(f *fixture, batches int) []byte {
	s := newEdgeStream(f.seed, f.n, f.edges)
	var b []byte
	for i := 0; i < batches; i++ {
		b = appendBody(b, s.next(writerBatch))
	}
	return b
}

func TestSeedDecidesInputs(t *testing.T) {
	a, err := newFixture(tierSmoke, 7)
	if err != nil {
		t.Fatal(err)
	}
	same, _ := newFixture(tierSmoke, 7)
	other, _ := newFixture(tierSmoke, 8)
	if !reflect.DeepEqual(a.edges, same.edges) {
		t.Error("same seed, different edge list")
	}
	if reflect.DeepEqual(a.edges, other.edges) {
		t.Error("different seeds, same edge list")
	}
	if !reflect.DeepEqual(a.ref, other.ref) {
		t.Errorf("relabelling changed the counts: %v vs %v", a.ref, other.ref)
	}
	for i := range workloads {
		w := &workloads[i]
		if !bytes.Equal(scheduleBytes(w, a), scheduleBytes(w, same)) {
			t.Errorf("%s: same seed, different request schedule", w.Name)
		}
		if w.Relabel && bytes.Equal(scheduleBytes(w, a), scheduleBytes(w, other)) {
			t.Errorf("%s: different seeds, same relabelled spellings", w.Name)
		}
	}
	if !bytes.Equal(opBytes(a, 4), opBytes(same, 4)) {
		t.Error("same seed, different edge-op stream")
	}
	if bytes.Equal(opBytes(a, 4), opBytes(other, 4)) {
		t.Error("different seeds, same edge-op stream")
	}
}

func TestRelabelledSpecIsIsomorphic(t *testing.T) {
	f, err := newFixture(tierSmoke, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := workloadByName("concurrent_mix")
	relabelled := 0
	for client := range w.Clients {
		for _, r := range buildCycle(w, f, client) {
			var body struct{ Query string }
			if err := json.Unmarshal([]byte(r.Body), &body); err != nil {
				t.Fatal(err)
			}
			if body.Query == r.Class {
				continue
			}
			relabelled++
			q, err := graph.ParseQuerySpec(body.Query)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := graph.CanonicalCode(q)
			if want, _ := graph.CanonicalCode(classQuery(r.Class)); got != want {
				t.Errorf("%q is not isomorphic to %s", body.Query, r.Class)
			}
		}
	}
	if relabelled == 0 {
		t.Error("concurrent_mix sends no relabelled edge lists")
	}
}

func TestEdgeStreamKeepsReferenceSet(t *testing.T) {
	f, err := newFixture(tierSmoke, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := newEdgeStream(f.seed, f.n, f.edges)
	live := map[[2]graph.VertexID]bool{}
	for _, e := range f.edges {
		live[edgeKey(e[0], e[1])] = true
	}
	for i := 0; i < 20; i++ {
		ops := s.next(writerBatch)
		if len(ops) != writerBatch {
			t.Fatalf("batch of %d ops, want %d", len(ops), writerBatch)
		}
		inserts := 0
		for _, op := range ops {
			k := edgeKey(op.U, op.V)
			if op.Insert {
				inserts++
				if live[k] || op.U == op.V {
					t.Fatalf("insert of a live edge or loop %v", op)
				}
				live[k] = true
			} else {
				if !live[k] {
					t.Fatalf("delete of an edge that is not live %v", op)
				}
				delete(live, k)
			}
		}
		if inserts != writerBatch/2 {
			t.Fatalf("%d inserts in a batch of %d", inserts, writerBatch)
		}
	}
	if len(live) != len(s.live) {
		t.Fatalf("reference set has %d edges, replay has %d", len(s.live), len(live))
	}
	for _, e := range s.live {
		if !live[edgeKey(e[0], e[1])] {
			t.Fatalf("reference set holds %v, replay does not", e)
		}
	}
}

func TestWholeCycleStop(t *testing.T) {
	box := 10 * time.Second
	for _, c := range []struct {
		elapsed   time.Duration
		done, max int
		want      bool
	}{
		{9 * time.Second, 5, 0, false}, // box still open: another whole cycle
		{10 * time.Second, 5, 0, true}, // the cycle in which the box expired has ended
		{12 * time.Second, 1, 0, true}, // a cycle longer than the box still completes
		{time.Hour, 2, 3, false},       // counted windows ignore the clock
		{time.Millisecond, 3, 3, true}, // and stop on the count
	} {
		if got := cycleStop(c.elapsed, box, c.done, c.max); got != c.want {
			t.Errorf("cycleStop(%v, %d done, max %d) = %v, want %v", c.elapsed, c.done, c.max, got, c.want)
		}
	}
}

func TestBenchmarkFileMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with `go run . -spec`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range onDisk.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range onDisk.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s = %v", m.Name, m.Bound)
		}
	}
	for _, m := range onDisk.PerLayer {
		check(m.Name)
	}
	if !seen["setup_s"] || len(onDisk.PerLayer) > 128 || len(onDisk.EndToEnd) > 16 {
		t.Error("BENCHMARK.json breaks the contract's list limits")
	}
}

// TestSmoke runs every workload for one cycle on the karate club graph,
// untraced and traced, and holds the output to the declared names.
func TestSmoke(t *testing.T) {
	f, err := newFixture(tierSmoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, runConfig{fixture: f, dir: dir, cycles: 1, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", w.Name, traced, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", w.Name, traced, d.Name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			line, err := json.Marshal(res.line())
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if json.Unmarshal(line, &keys) != nil || len(keys) != 4 {
				t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
			}
		}
		if _, err := os.Stat(dir + "/trace-" + w.Name + ".jsonl"); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

// TestWrongCountIsCaught feeds the checker a reference that is off by one.
func TestWrongCountIsCaught(t *testing.T) {
	f, err := newFixture(tierSmoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.ref[classQ3]++
	if _, err := runWorkload(workloadByName("warm_enum"), runConfig{fixture: f, dir: t.TempDir(), cycles: 1}); err == nil {
		t.Error("a warm-up reply that disagrees with the reference must fail the run")
	}
}

func TestBudgetGuard(t *testing.T) {
	// The driver's runs: 22 untraced per workload and 4 traced, two builds aside.
	driver := 22*float64(len(workloads))*plannedSeconds(tierDefault, defaultSeconds, false) +
		4*plannedSeconds(tierDefault, defaultSeconds, true)
	if driver > setCapS-300 {
		t.Errorf("the driver's runs are planned at %.0f s, too near the %d s cap", driver, setCapS)
	}
	if p := plannedSetSeconds(tierDefault, defaultSeconds, 2); p > setCapS {
		t.Errorf("-repeat 2 is planned at %.0f s, over the cap", p)
	}
	if p := plannedSetSeconds(tierLarge, maxBoxS, 10); p <= setCapS {
		t.Errorf("ten large sets at the longest box are planned at %.0f s and would be let through", p)
	}
}
