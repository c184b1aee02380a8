package storage

import (
	"testing"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
	"dualsim/internal/oracletest"
)

// Pinned draws: each test below was a hand-written round-trip, per-reader or
// corruption test of one reader over one fixture. TestStorageOracle holds
// every reader to the graph on drawn files now; each name keeps its old
// fixture as one fixed draw of the oracle, checked like every draw, and
// required to reach what it was pinned for.

// pinned is a fresh build of g under opt.
func pinned(g *graph.Graph, opt BuildOptions) draw {
	return draw{seed: 1, kind: "pinned", g: g, opt: opt, base: "build"}
}

// folded makes d's file a compaction of its build with batches of overlay.
func (d draw) folded(batches int) draw { d.base, d.batches = "compact", batches; return d }

// identical holds d's intact file to its bytes (draw.identity).
func (d draw) identical() draw { d.identity = true; return d }

// damaged corrupts d's file as fault says; seed draws where.
func (d draw) damaged(fault string, seed int64) draw { d.fault, d.seed = fault, seed; return d }

// pin checks d and requires it to reach every coverage key.
func pin(t *testing.T, d draw, keys ...string) {
	t.Helper()
	cov := &oracletest.Coverage{}
	check(t, d, cov)
	cov.Require(t, keys...)
}

// star is vertex 0 joined to leaves vertices, then isolated vertices.
func star(leaves, isolated int) *graph.Graph {
	edges := make([][2]graph.VertexID, leaves)
	for i := range edges {
		edges[i] = [2]graph.VertexID{0, graph.VertexID(i + 1)}
	}
	return graph.MustNewGraph(1+leaves+isolated, edges)
}

func complete(n int) *graph.Graph {
	var edges [][2]graph.VertexID
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			edges = append(edges, [2]graph.VertexID{graph.VertexID(u), graph.VertexID(w)})
		}
	}
	return graph.MustNewGraph(n, edges)
}

func TestPageWriterRoundTrip(t *testing.T) {
	pin(t, pinned(star(60, 3), BuildOptions{PageSize: 128, SkipReorder: true}), "empty record", "isolated tail", "span>=3")
}

func TestPageWriterCapacity(t *testing.T) {
	pin(t, pinned(star(100, 0), BuildOptions{PageSize: 128}), "full page")
	// As many two-entry raw records as the page has room for, and no more.
	w, added := NewPageWriter(128, 0), 0
	for w.Add(graph.VertexID(added), []graph.VertexID{1, 2}, false, false) {
		added++
	}
	want := (128 - pageHeaderSize) / (recordHeaderSize + 8 + slotSize)
	if p := parsersAgree(t, w.Bytes()); added != want || p == nil || p.Slots() != want {
		t.Fatalf("%d two-entry records fit a 128-byte page, want %d", added, want)
	}
}

func TestPageWriterReset(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(300, 900, 2), BuildOptions{PageSize: 128}))
}

func TestMaxEntriesPerPage(t *testing.T) {
	pin(t, pinned(star(200, 0), BuildOptions{PageSize: 256}), "full page")
	n, w := MaxEntriesPerPage(256), NewPageWriter(256, 0)
	if w.Add(0, make([]graph.VertexID, n+1), false, false) || !w.Add(0, make([]graph.VertexID, n), false, false) {
		t.Fatalf("a 256-byte page must hold %d entries and refuse %d", n, n+1)
	}
}

func TestParsePageRejectsGarbage(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(100, 300, 4), BuildOptions{PageSize: 256}).damaged(bitflip, 1), "fault:"+bitflip)
	absurd := make([]byte, 256)
	absurd[4], absurd[6] = 200, pageHeaderSize // 200 slots overrun the page
	rewriteChecksum(absurd)
	if parsersAgree(t, make([]byte, 4)) != nil || parsersAgree(t, absurd) != nil {
		t.Fatal("a 4-byte buffer or an absurd record count parses")
	}
}

func TestPageRoundTripQuick(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(200, 400, 9), BuildOptions{PageSize: 512}).damaged(renamed, 4), "reason:not a dense vertex-ID run")
}

func TestChecksumDetectsCorruption(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(100, 300, 3), BuildOptions{PageSize: 256, Compress: true}).damaged(bitflip, 1), "fault:"+bitflip)
}

func TestChecksumQuick(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(200, 600, 5), BuildOptions{PageSize: 512}).damaged(bitflip, 4), "bitflip:2 pages")
}

func TestPageIndexBuilds(t *testing.T) {
	for _, compress := range []bool{false, true} {
		pin(t, pinned(gen.PlantedHubs(600, 4, 400, 38), BuildOptions{PageSize: 256, Compress: compress}), "span>=3")
	}
}

func TestBuildAndOpenRoundTrip(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(100, 300, 11), BuildOptions{PageSize: 256}).identical())
}

func TestBuildDegreeOrdered(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(80, 200, 5), BuildOptions{PageSize: 256}), "reorder:full")
}

func TestBuildPageOfMonotone(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(120, 500, 6), BuildOptions{PageSize: 128}))
}

func TestBuildAdjacency(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(60, 150, 8), BuildOptions{PageSize: 256}))
}

func TestBuildLargeAdjacencySpansPages(t *testing.T) {
	pin(t, pinned(star(200, 0), BuildOptions{PageSize: 64}), "span>=3", "full page")
}

func TestBuildIsolatedVertices(t *testing.T) {
	pin(t, pinned(graph.MustNewGraph(10, [][2]graph.VertexID{{0, 1}, {1, 2}, {3, 4}}), BuildOptions{PageSize: 128}), "empty record")
}

func TestBuildMultiRunExternalSort(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(200, 1000, 13), BuildOptions{PageSize: 256, RunSize: 128}), "sort runs>=2")
}

func TestBuildSkipReorder(t *testing.T) {
	pin(t, pinned(star(3, 0), BuildOptions{PageSize: 128, SkipReorder: true}), "reorder:skip")
}

func TestBuildAppendFraction(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(100, 400, 21), BuildOptions{PageSize: 256, AppendFraction: 0.05}), "reorder:append")
}

func TestPageFirstsSpans(t *testing.T) {
	pin(t, pinned(gen.ChungLu(2000, 8000, 2.8, 1), BuildOptions{PageSize: 128}), "span>=3")
}

func TestReadPageErrors(t *testing.T) {
	pin(t, pinned(graph.MustNewGraph(4, [][2]graph.VertexID{{0, 1}, {2, 3}}), BuildOptions{PageSize: 128}))
}

func TestBuildTruncatedFileDetected(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(50, 150, 3), BuildOptions{PageSize: 256}).damaged(truncated, 1), "fault:"+truncated)
}

func TestDBStats(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(150, 800, 99), BuildOptions{PageSize: 256}))
}

func TestAddCompressedRoundTrip(t *testing.T) {
	pin(t, pinned(star(200, 2), BuildOptions{PageSize: 64, Compress: true}), "compress=true", "empty record", "span>=3")
}

func TestCompressedBuildCrossValidates(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(200, 1200, 71), BuildOptions{PageSize: 256, Compress: true}), "compress=true")
}

func TestCompressedHubSpansPages(t *testing.T) {
	pin(t, pinned(star(300, 0), BuildOptions{PageSize: 64, Compress: true}), "span>=3")
}

func TestAddCompressedSkipRecordRoundTrip(t *testing.T) {
	pin(t, pinned(gen.PlantedHubs(300, 4, 200, 9), BuildOptions{PageSize: 4096, Compress: true}), "skip table")
}

func TestCorruptSkipTableRejected(t *testing.T) {
	pin(t, pinned(complete(100), BuildOptions{PageSize: 512, Compress: true}), "tampered skip table")
}

func TestParsePageFusedMatchesLazy(t *testing.T) {
	pin(t, pinned(gen.ChungLu(1000, 4000, 2.3, 28), BuildOptions{PageSize: 512, Compress: true}),
		"tamper accepted=true", "tamper accepted=false", "truncated record")
}

func TestCrossReadV2(t *testing.T) {
	for i, fixture := range v2Fixtures {
		d := pinned(v2Graph(), BuildOptions{PageSize: 256, Compress: i == 1})
		d.base = fixture
		pin(t, d.identical(), "base:"+fixture)
	}
}

func TestCompactFoldsOverlay(t *testing.T) {
	for _, compress := range []bool{false, true} {
		pin(t, pinned(complete(12), BuildOptions{PageSize: MinPageSize, Compress: compress}).folded(7).identical(), "base:compact")
	}
}

// TestCompactKeepsEncoding: degree order puts the isolated vertex at ID 0,
// so a compaction reads the base's encoding off an empty record.
func TestCompactKeepsEncoding(t *testing.T) {
	for _, compress := range []bool{false, true} {
		pin(t, pinned(star(11, 1), BuildOptions{PageSize: MinPageSize, Compress: compress}).folded(2), "compact: empty first record")
	}
}

func TestReadPageIntoTypedErrors(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(60, 200, 12), BuildOptions{PageSize: 256}))
}

func TestStatsFillFactorBounded(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(300, 4000, 13), BuildOptions{PageSize: 128}))
}

func TestVerifyPagesReportsAllFailures(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(200, 1500, 14), BuildOptions{PageSize: 128}).damaged(bitflip, 3), "bitflip:2 pages")
}

func TestVerifyReportsNonDenseRun(t *testing.T) {
	pin(t, pinned(gen.ErdosRenyi(200, 600, 40), BuildOptions{PageSize: 256}).damaged(renamed, 4), "reason:not a dense vertex-ID run")
}

func TestVerifyStructuralChecks(t *testing.T) {
	g := gen.ErdosRenyi(120, 300, 41)
	pin(t, pinned(g, BuildOptions{PageSize: 256}).damaged(renamed, 2), "reason:the page array says")
	pin(t, pinned(g, BuildOptions{PageSize: 256}).damaged(misdirect, 1), "fault:"+misdirect)
	pin(t, pinned(g, BuildOptions{PageSize: 256}).damaged(edges, 1), "fault:"+edges)
}
