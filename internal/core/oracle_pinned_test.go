package core_test

import (
	"math/rand"
	"testing"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
	"dualsim/internal/rbi"
)

// Pinned draws: each test below was a hand-written count matrix over one
// slice of the mode space. TestDifferentialAllModes sweeps that space now;
// each name keeps its old fixture as one fixed draw of the oracle, checked
// like every draw — count, rows, checkpoints, pins — and required to reach
// what it was pinned for.

func random(seed int64, n, m int) *graph.Graph {
	return randomGraph(rand.New(rand.NewSource(seed)), n, m)
}

// pinned is a solo draw on a degree-reordered plain build.
func pinned(g *graph.Graph, q *graph.Query, pageSize, threads, frames int) draw {
	return draw{seed: 1, kind: "pinned", g: g, q: q, pageSize: pageSize, reorder: true,
		threads: threads, frames: frames, mode: solo}
}

// pin checks d and requires it to reach every coverage key.
func pin(t *testing.T, d draw, keys ...string) {
	t.Helper()
	cov := &coverage{}
	check(t, d, cov)
	cov.require(t, keys...)
}

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
	pin(t, d)
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
