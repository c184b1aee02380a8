package server

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"dualsim/internal/graph"
)

// Pinned schedules: each test below was a hand-written scenario of the
// serving path. TestServingOracle composes those scenarios now; each name
// keeps its old fixture as one fixed schedule of the oracle, checked like
// every draw — every reply against brute force at its epoch, the page ledger,
// the plan cache, a clean shutdown — and required to reach what it was
// pinned for.

// kn is the complete graph on n vertices.
func kn(n int) *graph.Graph {
	var edges [][2]graph.VertexID
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(i), graph.VertexID(j)})
		}
	}
	return graph.MustNewGraph(n, edges)
}

// pinnedServing is a fault-free, immutable schedule of g serving specs (the
// first is query 0, the next query 1, ...), with a global buffer of frames.
func pinnedServing(g *graph.Graph, pageSize, engines, frames int, specs ...string) sdraw {
	d := sdraw{seed: 1, kind: "pinned", g: g, pageSize: pageSize, engines: engines, threads: 1, frames: frames,
		riders: 4, fault: noFault, specs: specs}
	for _, spec := range specs {
		q, err := graph.ParseQuerySpec(spec)
		if err != nil {
			panic(err)
		}
		d.queries = append(d.queries, q)
	}
	return d
}

// pinServing runs d and requires it to reach every coverage key.
func pinServing(t *testing.T, d sdraw, keys ...string) *soracle {
	t.Helper()
	cov := &coverage{}
	o := runServing(t, d, cov)
	cov.require(t, keys...)
	return o
}

// Many clients, three spellings of the triangle, one plan.
func TestE2EConcurrentClients(t *testing.T) {
	d := pinnedServing(kn(16), 256, 4, 256, "q1")
	d.threads = 2
	for i := 0; i < 32; i++ {
		d.clients = append(d.clients, []sop{{spec: []string{"q1", "0-1,1-2,0-2", "1-2,0-2,0-1"}[i%3], kind: opCount}})
	}
	pinServing(t, d, "relabelled spelling", "engines=4")
}

func TestEmbeddingsStreaming(t *testing.T) {
	d := pinnedServing(kn(8), 256, 1, 64, "q1")
	d.clients = [][]sop{{{spec: "q1", kind: opStream}, {spec: "q1", kind: opCut, limit: 10},
		{spec: "1-2,0-2,0-1", kind: opCut, limit: 5}}}
	pinServing(t, d, "relabelled spelling")
}

// A stream killed by a device loss mid-run resumes from its last token,
// without replaying the level-1 windows it completed.
func TestResumeTokenRoundTrip(t *testing.T) {
	d := pinnedServing(kn(32), 256, 1, 8, "q1")
	d.fault, d.faultAt = permanent, 40
	d.clients = [][]sop{{{spec: "q1", kind: opStream}, {spec: "q1", kind: opStream}}}
	o := pinServing(t, d, "resumed after a fault")
	windows := map[bool]uint64{} // a resumed and a whole run's level-1 windows
	for _, r := range o.replies {
		if r.status == http.StatusOK && r.qr.Done {
			windows[r.token != ""] = r.qr.Profile.WindowsLevel1
		}
	}
	if windows[true] == 0 || windows[true] >= windows[false] {
		t.Errorf("the resume ran %d level-1 windows, a whole run %d", windows[true], windows[false])
	}
}

// Kill points spread over the reads between a shape's first checkpoint and
// its last read (q1 on K32 under 8 frames reads 80 pages, the first
// checkpoint at read 32; q4 354, at 140), for two shapes.
func TestChaosMatrixFaultedResumeExactCounts(t *testing.T) {
	for _, shape := range []struct {
		name, spec  string
		first, last int64
	}{{"q1", "q1", 32, 80}, {"q4", clique4Spec, 140, 354}} {
		for i := int64(1); i <= 8; i++ {
			at := shape.first + (shape.last-shape.first)*i/9
			t.Run(fmt.Sprintf("%s@%d", shape.name, at), func(t *testing.T) {
				d := pinnedServing(kn(32), 256, 1, 8, shape.spec)
				d.fault, d.faultAt = permanent, at
				d.clients = [][]sop{{{spec: shape.spec, kind: opStream}}}
				pinServing(t, d, "resumed after a fault")
			})
		}
	}
}

// A read storm under the retry budget, streams and counts.
func TestChaosSoak(t *testing.T) {
	d := pinnedServing(kn(32), 256, 1, 8, "q1", clique4Spec)
	d.seed, d.fault = 90_000, storm
	d.clients = [][]sop{{{spec: "q1", kind: opStream}, {query: 1, spec: clique4Spec, kind: opCount}},
		{{query: 1, spec: clique4Spec, kind: opStream}, {spec: "q1", kind: opCount}}}
	pinServing(t, d, "fault:"+storm)
}

func TestLiveIngestMutatesCounts(t *testing.T) {
	d := pinnedServing(kn(8), 256, 2, 64, "q1")
	d.threads, d.mutable, d.steps = 2, true, []string{stepBatch, stepBatch, stepInvalid, stepBatch}
	d.clients = [][]sop{{{spec: "q1", kind: opCount}, {spec: "q1", kind: opAcross, limit: 10, step: stepBatch},
		{spec: "q1", kind: opCount}, {spec: "q1", kind: opCount}}}
	pinServing(t, d, "answered a later epoch", "invalid batch")
}

// Counts across an explicit compaction of a live overlay.
func TestCompactionFoldsOverlayLive(t *testing.T) {
	d := pinnedServing(kn(10), 256, 2, 64, "q1")
	d.threads, d.mutable, d.steps = 2, true, []string{stepBatch, stepCompact, stepCompact, stepBatch}
	d.clients = [][]sop{{{spec: "q1", kind: opCount}, {spec: "q1", kind: opAcross, limit: 60, step: stepCompact},
		{spec: "q1", kind: opCount}, {spec: "q1", kind: opCount}}}
	pinServing(t, d, "answered a later epoch", "empty compaction")
}

// Batches, background and explicit compactions beside two query clients.
func TestChaosIngestSoak(t *testing.T) {
	d := pinnedServing(kn(24), 256, 3, 64, "q1", "q2")
	d.threads, d.mutable, d.compactEvery = 2, true, 4
	d.steps = []string{stepBatch, stepBatch, stepBatch, stepCompact, stepBatch, stepBatch, stepCompact}
	for c := 0; c < 2; c++ {
		d.clients = append(d.clients, []sop{{spec: "q1", kind: opCount}, {query: 1, spec: "q2", kind: opCount},
			{spec: "q1", kind: opAcross, limit: 100, step: stepBatch + "+" + stepCompact}, {query: 1, spec: "q2", kind: opCount}})
	}
	pinServing(t, d, "answered a later epoch")
}

// A token minted before a batch is refused (409) after it.
func TestResumeStaleEpoch(t *testing.T) {
	d := pinnedServing(kn(32), 256, 1, 8, "q1")
	d.mutable = true
	d.clients = [][]sop{{{spec: "q1", kind: opAcross, limit: 4000, step: stepBatch}}}
	pinServing(t, d, "409 resume")
}

// Every page read belongs to one reply's profile or to the cohort's sweep.
func TestE2EAttributionPagesExact(t *testing.T) {
	for _, share := range []bool{false, true} {
		t.Run(map[bool]string{false: "solo", true: "shared"}[share], func(t *testing.T) {
			d := pinnedServing(kn(16), 256, 4, 64, "q1")
			d.threads, d.shareScan = 2, share
			for i := 0; i < 32; i++ {
				kind := opCount
				if i%4 == 3 {
					kind = opStream
				}
				d.clients = append(d.clients, []sop{{spec: "q1", kind: kind}})
			}
			keys := []string{fmt.Sprintf("shareScan=%v", share)}
			if share {
				keys = append(keys, "rode the cohort")
			}
			pinServing(t, d, keys...)
		})
	}
}

// A cohort rider on board when a compaction swaps the file finishes on the
// old one, unbounced; the next count reads the folded file.
func TestRiderFinishesAcrossCompaction(t *testing.T) {
	d := pinnedServing(kn(40), 256, 2, 24, "q4")
	d.threads, d.shareScan, d.mutable, d.latency = 2, true, true, 3*time.Millisecond
	d.clients = [][]sop{{{spec: "q4", kind: opRide}, {spec: "q4", kind: opCount}}}
	o := pinServing(t, d, "rider across compaction", "answered a later epoch")
	if n := o.s.sm.cohortFallbacks.Value(); n != 0 {
		t.Errorf("%d cohort riders bounced", n)
	}
}
