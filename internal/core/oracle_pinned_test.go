package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
	"dualsim/internal/oracletest"
	"dualsim/internal/rbi"
)

// Pinned draws: each test below was a hand-written check of one mechanism
// over one fixture — a count matrix, a fault or cancel script, a registry or
// trace read-out, a budget edge. TestDifferentialAllModes draws those
// mechanisms now and checks every run for all of them; each name keeps its
// old fixture as one fixed draw of the oracle, checked like every draw —
// count, rows, checkpoints, pins, windows, registry, trace — and required to
// reach what it was pinned for.

func random(seed int64, n, m int) *graph.Graph {
	return randomGraph(rand.New(rand.NewSource(seed)), n, m)
}

// pinned is a solo draw on a degree-reordered plain build.
func pinned(g *graph.Graph, q *graph.Query, pageSize, threads, frames int) draw {
	return draw{seed: 1, kind: "pinned", g: g, q: q, pageSize: pageSize, reorder: true,
		threads: threads, frames: frames, mode: solo, killErr: context.Canceled}
}

// pin checks d and requires it to reach every coverage key.
func pin(t *testing.T, d draw, keys ...string) {
	t.Helper()
	cov := &oracletest.Coverage{}
	check(t, d, cov)
	cov.Require(t, keys...)
}

// hubs is a graph of n vertices whose k hubs, of n/3 neighbours each, span
// many 128-byte pages.
func hubs(seed int64, n, k int) *graph.Graph { return gen.PlantedHubs(n, k, n/3, seed) }

func TestEngineTinyGraphs(t *testing.T) {
	edges := [][2]graph.VertexID{}
	for i := graph.VertexID(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, [2]graph.VertexID{i, j})
		}
	}
	pin(t, pinned(graph.MustNewGraph(6, edges), graph.House(), 128, 2, 64), "resident")
}

func TestEngineMatchesBruteForceAcrossQueries(t *testing.T) {
	pin(t, pinned(random(101, 150, 700), graph.ChordalSquare(), 256, 3, 48))
}

func TestEngineRandomizedCrossValidation(t *testing.T) {
	pin(t, pinned(random(7, 120, 600), graph.Cycle("c5", 5), 128, 3, 30))
}

func TestEngineThreadCountsAgree(t *testing.T) {
	pin(t, pinned(random(59, 180, 1100), graph.Clique4(), 256, 4, 30), "threads=4")
}

func TestEnginePageSizeSweep(t *testing.T) {
	pin(t, pinned(random(65, 120, 700), graph.Triangle(), 64, 2, 32), "multi-window")
}

func TestEngineTinyBufferStress(t *testing.T) {
	pin(t, pinned(random(55, 200, 1400), graph.House(), 128, 2, 14), "multi-window")
}

func TestEngineOnCompressedDatabase(t *testing.T) {
	d := pinned(random(92, 200, 1300), graph.House(), 256, 2, 20)
	d.compress = true
	pin(t, d, "compress=true", "multi-window")
}

func TestEngineHighSkewGraph(t *testing.T) {
	pin(t, pinned(gen.PlantedHubs(150, 2, 120, 58), graph.Clique4(), 128, 4, 40), "multi-window")
}

// TestEngineRootPassOverHubs: under MVC q2's two red vertices are not
// adjacent, so its last level is a forest root as well as its first: every
// pass streams every page, its multi-page vertices (the hubs, a dozen pages
// each) read off the page-first array.
func TestEngineRootPassOverHubs(t *testing.T) {
	d := pinned(gen.PlantedHubs(150, 2, 120, 58), graph.Square(), 64, 2, 40)
	d.cover = rbi.MVC
	pin(t, d, "multi-window")
}

func TestEngineBipartiteNoOddQueries(t *testing.T) {
	pin(t, pinned(gen.Bipartite(20, 20, 300, 1), graph.Square(), 256, 2, 32))
}

func TestEngineOnMatchEmitsValidEmbeddings(t *testing.T) {
	d := pinned(random(60, 80, 400), graph.House(), 256, 3, 24)
	d.rows = true
	pin(t, d, "rows=true")
}

func TestEngineRepeatedRuns(t *testing.T) {
	d := pinned(random(62, 100, 600), graph.Triangle(), 256, 2, 24)
	d.repeat = true
	pin(t, d, "repeated: the same windows")
}

func TestEngineLargeBufferSingleWindow(t *testing.T) {
	pin(t, pinned(random(56, 100, 500), graph.Triangle(), 256, 2, 4096), "resident")
}

func TestEngineRandomQueriesQuickStyle(t *testing.T) {
	q := randomConnectedQuery(rand.New(rand.NewSource(406)), 5)
	pin(t, pinned(random(406, 80, 300), q, 256, 2, 24))
}

// Cycles split into forests whose later roots are Cartesian products.
func TestEngineCartesianPlans(t *testing.T) {
	pin(t, pinned(random(405, 60, 240), graph.Cycle("cycle5", 5), 128, 2, 16), "cartesian plan")
}

func TestEngineMatchesBruteForceMatrix(t *testing.T) {
	d := pinned(gen.PlantedHubs(400, 6, 120, 11), graph.House(), 512, 3, 96)
	d.compress = true
	pin(t, d, "compress=true")
}

func TestStealCorrectUnderConcurrentLoad(t *testing.T) {
	d := pinned(gen.PlantedHubs(250, 4, 80, 14), graph.Triangle(), 512, 8, 0)
	d.frameFrac, d.repeat = 0.15, true
	pin(t, d)
}

// The resume cursor and the overlay merge meet in the one window loader.
func TestOverlayMatchesRebuild(t *testing.T) {
	d := pinned(random(59, 80, 400), graph.House(), 64, 3, 14)
	d.reorder, d.compress, d.ingest, d.batches = false, true, true, 12
	d.mode, d.killAt, d.resumeFrac = kill, 2, 0.3
	pin(t, d, "overlay empty=false", "resumed:kill/")
}

// Inserts attach vertices whose on-disk records are empty.
func TestOverlayIsolatedVertexGainsEdges(t *testing.T) {
	d := pinned(random(4, 60, 25), graph.Triangle(), 256, 1, 16)
	d.reorder, d.ingest, d.batches = false, true, 10
	pin(t, d, "overlay empty=false")
}

func TestOverlayEmptySnapshotIsBasePath(t *testing.T) {
	d := pinned(random(23, 40, 150), graph.Triangle(), 256, 2, 16)
	d.reorder, d.ingest = false, true
	pin(t, d, "overlay empty=true")
}

// TestOverlayStreamDispatch: every page's load callback merges the overlay
// into the records it touches and queues the page's last-level task while
// other pages of the pass still load. Four I/O workers with a per-page
// latency stagger the callbacks; the hubs span many pages, so the mutated
// multi-page lists are rooted from their concatenated chunks in a pass; the
// buffer is the span floor, half the graph or all of it.
func TestOverlayStreamDispatch(t *testing.T) {
	for i, c := range []struct {
		q      *graph.Query
		budget string
		frac   float64
	}{{graph.Triangle(), "floor", 0}, {graph.ChordalSquare(), "", 0.5}, {graph.Clique4(), "", 1.2}} {
		d := pinned(hubs(211, 310, 4), c.q, 128, 3, 0)
		d.reorder, d.compress, d.ingest, d.batches = false, i == 1, true, 20
		d.budget, d.frameFrac, d.latency, d.ioWorkers = c.budget, c.frac, 5*time.Microsecond, 4
		pin(t, d, "overlay empty=false")
	}
}

func TestSweepRidersMatchSolo(t *testing.T) {
	d := pinned(random(42, 600, 2400), graph.Triangle(), 256, 4, 0)
	d.mode, d.frameFrac, d.companions = rider, 0.6, []*graph.Query{graph.Square(), graph.House()}
	pin(t, d, "rode beside companions")
}

// Killed at its second checkpoint and resumed on an engine with more frames,
// where the windows after the cursor chop differently.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4()} {
		t.Run(q.Name(), func(t *testing.T) {
			d := pinned(random(91, 200, 1400), q, 128, 3, 16)
			d.mode, d.killAt, d.resumeFrac, d.rows = kill, 2, 0.2, true
			pin(t, d, "resumed:kill/")
		})
	}
}

func TestReadRetryUnderRandomFaults(t *testing.T) {
	d := pinned(random(86, 150, 900), graph.Clique4(), 128, 4, 16)
	d.seed, d.fault = 5000, storm
	pin(t, d, "absorbed "+storm)
}

func TestReadRetryAbsorbsTransientFault(t *testing.T) {
	d := pinned(random(81, 150, 900), graph.Clique4(), 128, 2, 16)
	d.fault = pages
	pin(t, d, "absorbed "+pages)
}

// A device lost after two reads fails the run; healed, the same engine
// resumes it to the exact count.
func TestEngineRecoversAfterTransientFailure(t *testing.T) {
	d := pinned(random(78, 120, 700), graph.Triangle(), 256, 2, 16)
	d.fault, d.faultAt, d.rows = permanent, 2, true
	pin(t, d, "resumed:solo/permanent")
}

func TestEngineRetryAbsorbsTransientFaults(t *testing.T) {
	d := pinned(random(80, 150, 900), graph.Triangle(), 128, 2, 24)
	d.fault = pages
	pin(t, d, "absorbed "+pages)
}

func TestEngineTornReadHeals(t *testing.T) {
	d := pinned(random(83, 150, 900), graph.Triangle(), 128, 2, 24)
	d.fault = torn
	pin(t, d, "absorbed "+torn)
}

// One prepared plan executed by concurrent riders: execution never mutates
// the plan (under -race, a write would be reported).
func TestSharedPlanAcrossEngines(t *testing.T) {
	d := pinned(random(11, 48, 300), graph.ChordalSquare(), 256, 2, 64)
	d.mode, d.companions = rider, []*graph.Query{nil, nil}
	pin(t, d, "rode beside companions")
}

// Shapes beyond q1–q5: Cartesian forests (paths, stars, cycles), large
// automorphism groups (butterfly, K5) and asymmetric ones (paw, bull, kite).
func TestEngineExtendedShapes(t *testing.T) {
	for _, q := range []*graph.Query{
		graph.Path("path4", 4), graph.Path("path5", 5), graph.Star("star4", 4),
		graph.Cycle("cycle5", 5), graph.Cycle("cycle6", 6), graph.Clique("k5", 5),
		graph.MustNewQuery("paw", 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}),
		graph.MustNewQuery("bull", 5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 4}}),
		graph.MustNewQuery("butterfly", 5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}}),
		graph.MustNewQuery("kite", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {2, 4}}),
		graph.MustNewQuery("gem", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 0}, {4, 1}, {4, 2}, {4, 3}}),
	} {
		t.Run(q.Name(), func(t *testing.T) { pin(t, pinned(random(404, 90, 450), q, 256, 2, 28)) })
	}
}

// MVC red sets, the Cartesian-maximizing matching order and the equal buffer
// split are planner and engine knobs only: the count may not move.
func TestEngineMVCAndAblationsAgree(t *testing.T) {
	for _, q := range []*graph.Query{graph.Square(), graph.House()} {
		for _, knob := range []string{"cover=MVC", "worst=true", "equal=true"} {
			t.Run(q.Name()+"/"+knob, func(t *testing.T) {
				d := pinned(random(61, 120, 700), q, 256, 2, 32)
				d.cover, d.worst, d.equal = map[string]rbi.CoverMode{"cover=MVC": rbi.MVC}[knob], knob == "worst=true", knob == "equal=true"
				pin(t, d, knob)
			})
		}
	}
}

// Frame reuse under concurrent riders: at the engine's frame floor nearly
// every load evicts, so frames parse page after page into the decoded memory
// they keep while riders beside the draw pin, match and unpin pages of their
// own. Under -race, a page read after its unpin is reported against the next
// load into its frame.
func TestFrameReuseRidersAtFloor(t *testing.T) {
	d := pinned(random(43, 200, 900), graph.Triangle(), 128, 4, 0)
	d.mode, d.companions = rider, []*graph.Query{graph.Square(), graph.House()}
	pin(t, d, "rode beside companions")
}

// Overlapping runs on one engine: the one in flight keeps the engine, the
// other is refused with ErrEngineBusy, and the engine counts again after.
func TestEngineConcurrentRunsDefined(t *testing.T) {
	d := pinned(random(7, 64, 400), graph.Triangle(), 256, 2, 0)
	d.repeat = true
	pin(t, d, "busy refused", "repeated: the same windows")
}

// A run's row hook sees every embedding and is not handed the next run's.
func TestRunSpecPerRunCallback(t *testing.T) {
	d := pinned(random(3, 32, 150), graph.Triangle(), 256, 2, 64)
	d.rows, d.repeat = true, true
	pin(t, d, "rows=true", "repeated: the same windows")
}

// A resume from the last checkpoint reads nothing: windows before the cursor
// are skipped, not re-read.
func TestResumeSkipsCompletedWindows(t *testing.T) {
	d := pinned(random(92, 200, 1400), graph.Triangle(), 128, 2, 16)
	d.boundary, d.rows = "last", true
	pin(t, d, "resumed from the last checkpoint", "bad checkpoint refused")
}

func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	d := pinned(random(93, 60, 300), graph.Triangle(), 256, 1, 16)
	d.boundary = "middle"
	pin(t, d, "bad checkpoint refused", "resumed from the middle checkpoint")
}

func TestEngineInternalExternalSplit(t *testing.T) {
	pin(t, pinned(random(57, 300, 2000), graph.Triangle(), 128, 2, 16), "internal and external")
}

func TestEngineIOStatsPopulated(t *testing.T) {
	pin(t, pinned(random(63, 200, 1200), graph.Triangle(), 128, 2, 16), "multi-window")
}

// Below the buffer the run reads pages again; resident, each once.
func TestEngineSmallBufferReadsMoreThanLarge(t *testing.T) {
	for _, frames := range []int{14, 4096} {
		pin(t, pinned(random(64, 400, 3200), graph.Clique4(), 128, 2, frames),
			map[int]string{14: "pages read again", 4096: "resident"}[frames])
	}
}

func TestEngineDeterministicWindows(t *testing.T) {
	d := pinned(random(66, 150, 900), graph.House(), 128, 2, 18)
	d.repeat = true
	pin(t, d, "repeated: the same windows")
}

// The level-1 windows ascend in vertex and page, back to back over the
// whole vertex range: the trace's window bounds and the checkpoints say so.
func TestMergedCandidatesOrdering(t *testing.T) {
	d := pinned(random(67, 200, 1000), graph.Triangle(), 128, 1, 16)
	d.trace = true
	pin(t, d, "traced", "multi-window")
}

func TestIOWaitReported(t *testing.T) {
	d := pinned(random(91, 200, 1200), graph.Triangle(), 128, 2, 16)
	d.latency = 50 * time.Microsecond
	pin(t, d, "latency", "multi-window")
}

func TestWindowsPerLevelReported(t *testing.T) {
	pin(t, pinned(random(93, 250, 1600), graph.Clique4(), 128, 2, 16), "multi-window")
}

// TestLargeCliqueTopology is the regression test for plans of K ≥ 9
// positions, whose position pairs once indexed Topology bits p·K+p′ that
// shifted out of the 64-bit word: a K-clique missing the edge {0, 1}, with 5
// leaves on each of 0 and 1 and 10 on 2, counted 10-cliques as 10 and
// 11-cliques as 1 on K11 (brute force 2 and 0), and 57 and 11 on K12 (21 and
// 2).
func TestLargeCliqueTopology(t *testing.T) {
	for _, n := range []int{11, 12} {
		var edges [][2]graph.VertexID
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if u != 0 || v != 1 {
					edges = append(edges, [2]graph.VertexID{graph.VertexID(u), graph.VertexID(v)})
				}
			}
		}
		leaf := graph.VertexID(n)
		for hub, leaves := range []int{5, 5, 10} {
			for i := 0; i < leaves; i++ {
				edges = append(edges, [2]graph.VertexID{graph.VertexID(hub), leaf})
				leaf++
			}
		}
		for _, k := range []int{10, 11} {
			pin(t, pinned(graph.MustNewGraph(int(leaf), edges), graph.Clique(fmt.Sprintf("k%d", k), k), 4096, 2, 64), "resident")
		}
	}
}

func TestEngineSurfacesReadErrors(t *testing.T) {
	for _, at := range []int64{0, 3, 25} {
		d := pinned(random(77, 200, 1200), graph.Clique4(), 128, 3, 16)
		d.fault, d.faultAt = permanent, at
		pin(t, d, "resumed:solo/permanent")
	}
}

func TestEngineRetryExhaustion(t *testing.T) {
	d := pinned(random(81, 100, 500), graph.Triangle(), 256, 2, 16)
	d.typed = exhausted
	pin(t, d, "typed:"+exhausted)
}

func TestEngineCorruptPageSurfacesTypedError(t *testing.T) {
	d := pinned(random(82, 100, 500), graph.Triangle(), 256, 2, 16)
	d.typed = corrupt
	pin(t, d, "typed:"+corrupt)
}

// One huge hub on tiny pages: a buffer one frame short of its span per level
// is refused, naming the buffer, before any read.
func TestEngineVertexSpanExceedsBudget(t *testing.T) {
	var edges [][2]graph.VertexID
	for i := 1; i <= 600; i++ {
		edges = append(edges, [2]graph.VertexID{0, graph.VertexID(i)}, [2]graph.VertexID{graph.VertexID(i), graph.VertexID(i%600 + 1)})
	}
	d := pinned(graph.MustNewGraph(601, edges), graph.Triangle(), 64, 1, 0)
	d.budget = "below"
	pin(t, d, "budget below the span floor")
}

// A failed or cancelled run leaves nothing pinned, and the engine counts
// exactly afterwards.
func TestEngineErrorsDoNotPoisonPool(t *testing.T) {
	t.Run("read error", func(t *testing.T) {
		d := pinned(random(79, 150, 900), graph.House(), 128, 2, 14)
		d.typed = exhausted
		pin(t, d, "typed:"+exhausted)
	})
	t.Run("cancellation", func(t *testing.T) {
		d := pinned(random(79, 150, 900), graph.House(), 128, 2, 14)
		d.mode, d.killAt, d.resumeFrac, d.repeat = kill, 1, 0, true
		pin(t, d, "resumed:kill/", "killed: context canceled")
	})
}

func TestRunContextPreCanceled(t *testing.T) {
	d := pinned(random(84, 100, 500), graph.Triangle(), 256, 2, 16)
	d.precancel = context.Canceled
	pin(t, d, "pre-cancelled: context canceled")
}

func TestRunContextCancelMidRun(t *testing.T) {
	for _, at := range []int{1, 5} {
		d := pinned(random(85, 200, 1400), graph.Clique4(), 128, 3, 16)
		d.mode, d.killPass, d.killAt = kill, true, at
		pin(t, d, "killed inside a pass", "resumed:kill/")
	}
}

// A run that outlives its deadline ends with context.DeadlineExceeded and a
// clean pool.
func TestOptionsTimeout(t *testing.T) {
	d := pinned(random(86, 200, 1400), graph.Clique4(), 128, 2, 16)
	d.mode, d.killAt, d.killErr = kill, 2, context.DeadlineExceeded
	pin(t, d, "killed: context deadline exceeded")
}

// A cancel racing injected faults and their retries.
func TestEngineCancellationUnderFaultLoad(t *testing.T) {
	d := pinned(random(87, 200, 1400), graph.Triangle(), 128, 3, 16)
	d.mode, d.killPass, d.killAt, d.fault = kill, true, 3, storm
	pin(t, d, "killed inside a pass", "absorbed "+storm)
}

// TestForestRootWindowNotIntersected: the window of a node whose candidates
// are every vertex — level 1 always, a deeper forest root too — is an ID
// interval and lists no vertex, so the clipped lists of the connected
// positions stand in for it. Were it an operand, its empty list would empty
// the candidates of every external subtree through it. Plans with each shape
// the elision meets: a connected level-1 node (q1, q5), a level-1 node
// nothing is connected to (q2 under MVC) and a full middle-level root beside
// groups where that level has a parent (q2 with every vertex red).
func TestForestRootWindowNotIntersected(t *testing.T) {
	for i, c := range []struct {
		q     *graph.Query
		cover rbi.CoverMode
	}{{graph.Triangle(), rbi.MCVC}, {graph.House(), rbi.MCVC}, {graph.Square(), rbi.MVC}, {graph.Square(), rbi.AllRed}} {
		d := pinned(random(23, 400, 2400), c.q, 256>>(i%2), 2, 0)
		d.cover, d.compress, d.rows, d.frameFrac = c.cover, i%2 == 1, i < 2, 0.3
		pin(t, d, "multi-window", "internal and external")
	}
}

// TestTailCounted: a count run adds C(n, Tail) where the plan's tail starts,
// a run with a row hook enumerates the tail's rows, over the plans with the
// longest tails — Star(3), the 3-page book and K2,3 under MCVC and MVC.
func TestTailCounted(t *testing.T) {
	book := graph.MustNewQuery("book3", 5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {0, 4}, {1, 4}})
	k23 := graph.MustNewQuery("k2,3", 5, [][2]int{{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}})
	for _, c := range []struct {
		q     *graph.Query
		cover rbi.CoverMode
	}{{graph.Star("s3", 3), rbi.MCVC}, {book, rbi.MCVC}, {k23, rbi.MCVC}, {k23, rbi.MVC}} {
		for _, rows := range []bool{true, false} {
			d := pinned(gen.PlantedHubs(300, 4, 40, 36), c.q, 256, 2, 0)
			d.cover, d.rows, d.compress, d.frameFrac = c.cover, rows, !rows, map[bool]float64{true: 0.2, false: 1.3}[rows]
			pin(t, d, fmt.Sprintf("tail>=2 rows=%v", rows))
		}
	}
}

func TestTracerWindowLifecycle(t *testing.T) {
	d := pinned(random(55, 200, 1400), graph.Triangle(), 128, 2, 14)
	d.trace = true
	pin(t, d, "traced", "multi-window")
}

func TestResultMetricsSnapshot(t *testing.T) {
	d := pinned(random(7, 150, 700), graph.Triangle(), 256, 2, 48)
	d.repeat = true
	pin(t, d, "repeated: the same windows")
}

// Engines on one registry count into the same counters, the pool's
// included, which outlive the engine that counted them.
func TestSharedRegistryAcrossEngines(t *testing.T) {
	d := pinned(random(9, 100, 400), graph.Triangle(), 256, 1, 0)
	d.mode, d.killAt, d.resumeFrac, d.misdirect = kill, 1, 0.5, true
	pin(t, d, "resumed:kill/", "misdirected read")
}

func TestDirectRunAttributed(t *testing.T) {
	d := pinned(random(11, 150, 700), graph.Triangle(), 128, 2, 16)
	d.repeat = true
	pin(t, d, "repeated: the same windows")
}

func TestProgressReporterEmits(t *testing.T) {
	d := pinned(random(3, 150, 900), graph.Clique4(), 128, 2, 14)
	d.trace = true
	pin(t, d, "traced")
}

// The shared sweep refuses overlay and resume specs; an empty snapshot is
// the base graph and rides.
func TestOverlayRiderNotEligible(t *testing.T) {
	for _, batches := range []int{3, 0} {
		d := pinned(random(3, 40, 150), graph.Triangle(), 256, 2, 96)
		d.reorder, d.ingest, d.batches, d.mode = false, true, batches, rider
		pin(t, d, "rider eligibility", map[int]string{3: "refused rider", 0: "rode"}[batches])
	}
}

func TestReadRetryExhaustionFails(t *testing.T) {
	d := pinned(random(82, 120, 700), graph.Triangle(), 256, 2, 16)
	d.typed = exhausted
	pin(t, d, "typed:"+exhausted)
}

func TestReadRetryDoesNotRetryCorruption(t *testing.T) {
	d := pinned(random(83, 120, 700), graph.Triangle(), 256, 2, 16)
	d.typed = corrupt
	pin(t, d, "typed:"+corrupt)
}

// TestResidentAllocation: with frames for the whole graph plus one maximal
// vertex per deeper level, level 1 takes exactly the graph — one window,
// internal only, every page read once — and one frame short it does not.
func TestResidentAllocation(t *testing.T) {
	for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4()} {
		for _, compress := range []bool{false, true} {
			d := pinned(gen.ChungLu(600, 2400, 2.5, 7), q, 128, 2, 0)
			d.budget, d.compress = "threshold", compress
			pin(t, d, "resident", "budget at the resident threshold")
		}
	}
}

// TestRowsPrecedeCheckpoint: when a level-1 window's checkpoint fires, the
// row hook has been handed exactly the embeddings of the windows below the
// cursor, each once, and none of a later window — solo and as a rider.
func TestRowsPrecedeCheckpoint(t *testing.T) {
	for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4()} {
		for _, pageSize := range []int{128, 64} {
			for _, mode := range []string{solo, rider} {
				t.Run(fmt.Sprintf("%s pageSize=%d %s", q.Name(), pageSize, mode), func(t *testing.T) {
					d := pinned(hubs(221, 340, 3), q, pageSize, 4, 0)
					d.reorder, d.compress, d.rows, d.mode, d.frameFrac, d.ioWorkers = false, pageSize == 64, true, mode, 0.1, 2
					pin(t, d, "multi-window", map[string]string{solo: "busy refused", rider: "rider took checkpoints"}[mode])
				})
			}
		}
	}
}

func TestCompressedRunBooksRecords(t *testing.T) {
	d := pinned(gen.PlantedHubs(400, 6, 120, 15), graph.Triangle(), 512, 2, 0)
	d.compress = true
	pin(t, d, "compressed records booked")
}

// q4's ivory vertex marks the earliest red's list and probes the merge of
// the other two against it; the hub-vs-leaf skew sends some merges, and the
// probes of lists far longer than the marked one, to the galloping kernel.
func TestKernelCountersExported(t *testing.T) {
	pin(t, pinned(gen.PlantedHubs(300, 5, 100, 12), graph.Clique4(), 512, 2, 4096), "kernel:linear", "kernel:gallop", "kernel:probe")
}

// A window whose internal work sits in a few hub candidates: running tasks
// split their range when the pool's queue drains.
func TestStealSplitsOnSkew(t *testing.T) {
	d := pinned(gen.PlantedHubs(600, 6, 200, 13), graph.House(), 4096, 4, 64)
	d.repeat = true
	pin(t, d, "steal split")
}

// An idle worker and an empty queue are the signal a running task splits on.
func TestWorkerPoolHungry(t *testing.T) {
	d := pinned(gen.PlantedHubs(500, 6, 150, 17), graph.House(), 4096, 3, 4096)
	d.repeat = true
	pin(t, d, "steal split", "resident")
}

// The streamed last level in a pool of exactly one maximal vertex per level:
// a pass pinning one page more than its budget would fail the run. Four I/O
// workers with a per-page latency land a pass's pages out of order.
func TestStreamExactBudget(t *testing.T) {
	for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4(), graph.House()} {
		d := pinned(gen.PlantedHubs(340, 3, 200, 221), q, 64, 1, 0)
		d.reorder, d.budget, d.latency, d.ioWorkers = false, "floor", 5*time.Microsecond, 4
		pin(t, d, "budget at the span floor", "multi-window")
	}
}

// Faults on pages a last-level pass reads first: a transient one is absorbed
// by the read retry with every row delivered once, a permanent one fails the
// run with nothing pinned and heals to a resume, and a page renamed under a
// valid image fails the run naming it.
func TestStreamFaultMidPass(t *testing.T) {
	for _, c := range []struct {
		name  string
		q     *graph.Query
		fault string
		key   string
	}{
		{"transient", graph.Triangle(), pages, "absorbed " + pages},
		{"transient q4", graph.Clique4(), pages, "absorbed " + pages},
		{"permanent", graph.Triangle(), permanent, "resumed:solo/permanent"},
		{"renamed", graph.Triangle(), "", "misdirected read"},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := pinned(hubs(221, 340, 3), c.q, 128, 2, 0)
			d.reorder, d.rows, d.fault, d.faultAt, d.misdirect, d.frameFrac = false, true, c.fault, 30, c.fault == "", 0.1
			pin(t, d, c.key)
		})
	}
}

// A cancel on a pass's read of a hub's last page: it lands while the hub's
// earlier chunks are pinned and the hub not yet rooted, reads are in flight
// and tasks matching. The pass's end must unpin those chunks.
func TestStreamCancelMidPass(t *testing.T) {
	d := pinned(hubs(221, 340, 3), graph.Clique4(), 128, 2, 0)
	d.reorder, d.mode, d.killPass, d.killSpan, d.frameFrac = false, kill, true, true, 0.1
	d.latency, d.ioWorkers = 5*time.Microsecond, 4
	pin(t, d, "killed on a multi-page vertex's last page", "resumed:kill/")
}

// A rider that boards after the sweep's first window wraps around to it
// with no checkpoint; the companions finish early and leave.
func TestSweepLateJoinEarlyFinish(t *testing.T) {
	d := pinned(random(42, 600, 2400), graph.Triangle(), 256, 4, 0)
	d.mode, d.frameFrac, d.companions, d.joinAfter = rider, 0.1, []*graph.Query{graph.Clique4()}, 1
	pin(t, d, "late join", "rode beside companions")
}

// A companion closed before the sweep's release still books its shared
// pages: the cohort's ledger loses none.
func TestRiderCloseBeforeReleaseBooksShared(t *testing.T) {
	d := pinned(random(42, 600, 2400), graph.Triangle(), 256, 4, 0)
	d.mode, d.frameFrac, d.companions, d.joinAfter, d.cancelOne = rider, 0.2, []*graph.Query{nil}, 1, true
	pin(t, d, "cancelled companion", "rode")
}

func TestSweepRiderEligibility(t *testing.T) {
	d := pinned(random(42, 600, 2400), graph.Triangle(), 256, 4, 0)
	d.mode, d.frameFrac = rider, 0.6
	pin(t, d, "rider eligibility", "busy refused", "rode")
}

// Resident: one level-1 window spanning every vertex, internal only, no
// deeper level visited, every page read once — with and without an overlay.
func TestResidentWindowInternalOnly(t *testing.T) {
	for i, q := range []*graph.Query{graph.Clique4(), graph.House(), randomConnectedQuery(rand.New(rand.NewSource(181)), 5)} {
		d := pinned(random(181, 70, 320), q, 128, 2, 4096)
		d.reorder, d.compress, d.ingest, d.batches = false, i == 1, i != 1, 1
		pin(t, d, "resident")
	}
}

// Four I/O workers deliver a window's pages concurrently, each callback
// writing its own ordinal of a lock-free index while last-level page tasks
// already match against theirs; hubs split across many pages put the side
// table and the rooting of multi-page candidates inside a pass on the path.
func TestWindowIndexConcurrentBuild(t *testing.T) {
	for _, overlay := range []bool{false, true} {
		d := pinned(hubs(182, 260, 5), graph.Clique4(), 128, 3, 0)
		d.reorder, d.compress, d.ingest, d.batches = false, overlay, overlay, 6
		d.frameFrac, d.latency, d.ioWorkers = 0.3, 5*time.Microsecond, 4
		pin(t, d, "multi-window")
	}
}

// Last-level page tasks match while later pages' load callbacks still write
// their ordinals of the pass's index.
func TestExtMapPageLoadRace(t *testing.T) {
	d := pinned(hubs(17, 500, 6), graph.Triangle(), 256, 4, 0)
	d.repeat, d.frameFrac, d.latency, d.ioWorkers = true, 0.2, 20*time.Microsecond, 4
	pin(t, d, "multi-window")
}

// The pool runs every task it is handed and its registry counters say so: at
// the end of each draw, with its engines closed, as many tasks completed as
// were submitted and the queue empty.
func TestWorkerPoolRunsEveryTask(t *testing.T) {
	pin(t, pinned(random(99, 300, 1800), graph.House(), 128, 4, 20), "multi-window")
}

func TestWorkerPoolRegistryCounters(t *testing.T) {
	d := pinned(random(98, 200, 1000), graph.Triangle(), 128, 3, 16)
	d.repeat = true
	pin(t, d, "repeated: the same windows")
}
