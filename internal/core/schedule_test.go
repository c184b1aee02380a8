package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
	"dualsim/internal/plan"
	"dualsim/internal/rbi"
)

// scheduleKey names one golden run: query, base-file encoding, and buffer
// configuration.
type scheduleKey struct {
	query      string
	compressed bool
	frames     int
}

// schedule is one pinned I/O schedule: level-1 windows, windows per level
// (fmt.Sprint of Result.WindowsPerLevel; the last entry counts streamed
// passes), pages asked of the pool, and pages physically read.
type schedule struct {
	l1       int
	perLevel string
	requests uint64
	reads    uint64
}

func scheduleOf(res *Result) schedule {
	return schedule{res.Level1Windows, fmt.Sprint(res.WindowsPerLevel), res.Profile.LogicalReads, res.Profile.PagesRead}
}

// within reports whether the run kept to the golden schedule: the same
// windows and the same page requests — what the engine decides — and no more
// physical reads. Which of the requests hit is the pool's doing: a streamed
// last level unpins its pages in the order their matching ends, so the few
// unpinned pages a pass leaves behind in the pool, and with them a handful
// of later hits, vary with timing. reads is therefore a ceiling.
func (got schedule) within(golden schedule) bool {
	return got.l1 == golden.l1 && got.perLevel == golden.perLevel &&
		got.requests == golden.requests && got.reads <= golden.reads
}

// Level-1 and middle-level windows and the reads ceilings were recorded on
// the commit before level 1 moved behind Sweep (PR 11's tree, run.loadWindow
// + windowIterator at every level; the 96-frame rows on the last commit that
// could carve speculative-read frames out of a level's window budget, run
// there with the carve off) and have held since: the ceiling is what a last
// level chopped into windows read. The last entry of each windows-per-level
// list and the requests were re-recorded, on purpose, when the last level
// became a stream: one pass per window of the level above (fresh runs; a
// resumed run counts the passes of the windows it still had to do), each
// asking for a page once where consecutive windows used to ask twice for the
// page they met on. One I/O worker makes the order of requests deterministic.
var (
	goldenFresh = map[scheduleKey]schedule{
		{"q1-triangle", false, 40}:        {9, "[9 9]", 1239, 1088},
		{"q2-square", false, 40}:          {13, "[13 111 111]", 15429, 13177},
		{"q3-chordalsquare", false, 40}:   {9, "[9 9]", 1239, 1088},
		{"q4-clique4", false, 40}:         {13, "[13 111 111]", 6365, 5609},
		{"q5-house", false, 40}:           {13, "[13 111 111]", 17242, 14878},
		{"q1-triangle", false, 96}:        {3, "[3 3]", 730, 533},
		{"q2-square", false, 96}:          {5, "[5 19 19]", 4133, 2748},
		{"q3-chordalsquare", false, 96}:   {3, "[3 3]", 730, 533},
		{"q4-clique4", false, 96}:         {5, "[5 19 19]", 2215, 1572},
		{"q5-house", false, 96}:           {5, "[5 19 19]", 4576, 3071},
		{"q1-triangle", false, 4096}:      {1, "[1 0]", 267, 267},
		{"q2-square", false, 4096}:        {1, "[1 0 0]", 267, 267},
		{"q3-chordalsquare", false, 4096}: {1, "[1 0]", 267, 267},
		{"q4-clique4", false, 4096}:       {1, "[1 0 0]", 267, 267},
		{"q5-house", false, 4096}:         {1, "[1 0 0]", 267, 267},
		{"q1-triangle", true, 40}:         {4, "[4 4]", 364, 272},
		{"q2-square", true, 40}:           {6, "[6 24 24]", 2380, 1683},
		{"q3-chordalsquare", true, 40}:    {4, "[4 4]", 364, 272},
		{"q4-clique4", true, 40}:          {6, "[6 24 24]", 1185, 883},
		{"q5-house", true, 40}:            {6, "[6 24 24]", 2570, 1779},
		{"q1-triangle", true, 96}:         {2, "[2 2]", 253, 152},
		{"q2-square", true, 96}:           {2, "[2 3 3]", 550, 244},
		{"q3-chordalsquare", true, 96}:    {2, "[2 2]", 253, 152},
		{"q4-clique4", true, 96}:          {2, "[2 3 3]", 439, 213},
		{"q5-house", true, 96}:            {2, "[2 3 3]", 609, 274},
		{"q1-triangle", true, 4096}:       {1, "[1 0]", 122, 122},
		{"q2-square", true, 4096}:         {1, "[1 0 0]", 122, 122},
		{"q3-chordalsquare", true, 4096}:  {1, "[1 0]", 122, 122},
		{"q4-clique4", true, 4096}:        {1, "[1 0 0]", 122, 122},
		{"q5-house", true, 4096}:          {1, "[1 0 0]", 122, 122},
		// One frame short of the resident threshold (pages + one maximal
		// vertex per deeper level): the paper's split, recorded before
		// buffer.Allocate learned the page count. The last level's passes
		// and the requests were re-recorded when it became a stream.
		{"q1-triangle", false, 273}:      {2, "[2 2]", 501, 267},
		{"q2-square", false, 280}:        {2, "[2 2 2]", 871, 267},
		{"q3-chordalsquare", false, 273}: {2, "[2 2]", 501, 267},
		{"q4-clique4", false, 280}:       {2, "[2 2 2]", 819, 267},
		{"q5-house", false, 280}:         {2, "[2 2 2]", 1089, 267},
		{"q1-triangle", true, 123}:       {2, "[2 2]", 228, 122},
		{"q2-square", true, 125}:         {2, "[2 3 3]", 510, 122},
		{"q3-chordalsquare", true, 123}:  {2, "[2 2]", 228, 122},
		{"q4-clique4", true, 125}:        {2, "[2 3 3]", 374, 122},
		{"q5-house", true, 125}:          {2, "[2 3 3]", 616, 122},
	}
	// Resumed from the second level-1 checkpoint on a fresh engine;
	// configurations with fewer than three level-1 windows have no entry.
	goldenResumed = map[scheduleKey]schedule{
		{"q1-triangle", false, 40}:      {9, "[9 7]", 801, 674},
		{"q2-square", false, 40}:        {13, "[13 85 85]", 11233, 9390},
		{"q3-chordalsquare", false, 40}: {9, "[9 7]", 801, 674},
		{"q4-clique4", false, 40}:       {13, "[13 85 85]", 4818, 4172},
		{"q5-house", false, 40}:         {13, "[13 85 85]", 14500, 12602},
		{"q1-triangle", false, 96}:      {3, "[3 1]", 161, 89},
		{"q2-square", false, 96}:        {5, "[5 7 7]", 1085, 515},
		{"q3-chordalsquare", false, 96}: {3, "[3 1]", 161, 89},
		{"q4-clique4", false, 96}:       {5, "[5 7 7]", 682, 338},
		{"q5-house", false, 96}:         {5, "[5 7 7]", 2034, 1437},
		{"q1-triangle", true, 40}:       {4, "[4 2]", 108, 64},
		{"q2-square", true, 40}:         {6, "[6 9 9]", 722, 398},
		{"q3-chordalsquare", true, 40}:  {4, "[4 2]", 108, 64},
		{"q4-clique4", true, 40}:        {6, "[6 9 9]", 421, 242},
		{"q5-house", true, 40}:          {6, "[6 9 9]", 1181, 840},
	}
)

// goldenTally is each configuration's Internal/External split, recorded on
// the commit before the engine stopped descending into subtrees that can
// only complete internal matches: pruning may skip work, never move an
// embedding between the two tallies. Resumed runs settle the same totals
// (the checkpoint carries the consumed prefix's), so one table serves both.
var goldenTally = map[scheduleKey][2]uint64{
	{"q1-triangle", false, 40}:        {184, 788},
	{"q2-square", false, 40}:          {159, 12696},
	{"q3-chordalsquare", false, 40}:   {2606, 5651},
	{"q4-clique4", false, 40}:         {26, 260},
	{"q5-house", false, 40}:           {14838, 245698},
	{"q1-triangle", false, 96}:        {480, 492},
	{"q2-square", false, 96}:          {679, 12176},
	{"q3-chordalsquare", false, 96}:   {7439, 818},
	{"q4-clique4", false, 96}:         {67, 219},
	{"q5-house", false, 96}:           {61482, 199054},
	{"q1-triangle", false, 4096}:      {972, 0},
	{"q2-square", false, 4096}:        {12855, 0},
	{"q3-chordalsquare", false, 4096}: {8257, 0},
	{"q4-clique4", false, 4096}:       {286, 0},
	{"q5-house", false, 4096}:         {260536, 0},
	{"q1-triangle", true, 40}:         {360, 612},
	{"q2-square", true, 40}:           {2150, 10705},
	{"q3-chordalsquare", true, 40}:    {5643, 2614},
	{"q4-clique4", true, 40}:          {200, 86},
	{"q5-house", true, 40}:            {69512, 191024},
	{"q1-triangle", true, 96}:         {536, 436},
	{"q2-square", true, 96}:           {9258, 3597},
	{"q3-chordalsquare", true, 96}:    {7534, 723},
	{"q4-clique4", true, 96}:          {272, 14},
	{"q5-house", true, 96}:            {226921, 33615},
	{"q1-triangle", true, 4096}:       {972, 0},
	{"q2-square", true, 4096}:         {12855, 0},
	{"q3-chordalsquare", true, 4096}:  {8257, 0},
	{"q4-clique4", true, 4096}:        {286, 0},
	{"q5-house", true, 4096}:          {260536, 0},
	// One frame short of the resident threshold, recorded later (ac3c644).
	{"q1-triangle", false, 273}:      {972, 0},
	{"q2-square", false, 280}:        {3841, 9014},
	{"q3-chordalsquare", false, 273}: {4278, 3979},
	{"q4-clique4", false, 280}:       {209, 77},
	{"q5-house", false, 280}:         {152099, 108437},
	{"q1-triangle", true, 123}:       {939, 33},
	{"q2-square", true, 125}:         {6571, 6284},
	{"q3-chordalsquare", true, 123}:  {3612, 4645},
	{"q4-clique4", true, 125}:        {250, 36},
	{"q5-house", true, 125}:          {196323, 64213},
}

// TestWindowScheduleGolden pins the exact window/page schedule of solo
// runs — not just the embedding counts; see schedule.within for what exact
// means for physical reads — on a deterministic gen fixture:
// the five paper queries × {plain, compressed} × a starved buffer (level 1
// needs >= 3 windows), a mid-sized one, a roomy one (level 1 fits in one window, which is
// then all internal area: no deeper level is visited) and one frame short of
// the resident threshold (the paper's split, two level-1 windows); plus,
// wherever level 1 has >= 3 windows, a run resumed from the second window
// boundary. "The solo partition through Sweep == the solo iterator" means
// the level-1 constants never change.
func TestWindowScheduleGolden(t *testing.T) {
	g := gen.ChungLu(600, 2400, 2.5, 7)
	for _, compressed := range []bool{false, true} {
		db := buildDB(t, g, 128)
		if compressed {
			db = buildCompressedDB(t, g, 128)
		}
		for _, size := range []int{40, 96, 4096, -1} {
			for _, q := range graph.PaperQueries() {
				p := mustPlan(t, q)
				frames := size
				if size < 0 { // one frame short of the resident threshold
					frames = db.NumPages() + (p.K-1)*db.PageFirsts().MaxSpan() - 1
				}
				k := scheduleKey{q.Name(), compressed, frames}
				opts := Options{Threads: 2, IOWorkers: 1, BufferFrames: frames}
				run := func(spec RunSpec) *Result {
					t.Helper()
					e, err := NewEngine(db, opts)
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					res, err := e.RunSpecContext(context.Background(), spec)
					if err != nil {
						t.Fatalf("%+v: %v", k, err)
					}
					return res
				}
				var cps []Checkpoint
				res := run(RunSpec{Plan: p, OnCheckpoint: func(cp Checkpoint) { cps = append(cps, cp) }})
				if got, want := scheduleOf(res), goldenFresh[k]; !got.within(want) {
					t.Errorf("%+v: schedule %+v, golden %+v", k, got, want)
				}
				if got, want := [2]uint64{res.Internal, res.External}, goldenTally[k]; got != want {
					t.Errorf("%+v: internal/external %v, golden %v", k, got, want)
				}
				want, ok := goldenResumed[k]
				if ok != (len(cps) >= 3) {
					t.Fatalf("%+v: %d checkpoints, resumed golden present = %v", k, len(cps), ok)
				}
				if !ok {
					continue
				}
				res2 := run(RunSpec{Plan: p, Resume: &cps[1]})
				if res2.Count != res.Count {
					t.Errorf("%+v: resumed count %d, fresh %d", k, res2.Count, res.Count)
				}
				if got := scheduleOf(res2); !got.within(want) {
					t.Errorf("%+v resumed: schedule %+v, golden %+v", k, got, want)
				}
				if got, want := [2]uint64{res2.Internal, res2.External}, goldenTally[k]; got != want {
					t.Errorf("%+v resumed: internal/external %v, golden %v", k, got, want)
				}
			}
		}
	}
}

// TestRootWindowSchedule pins the windows of a middle level that a forest
// root makes the whole vertex range: q2 with every vertex red, whose second
// and third levels are roots of some groups and children in others. Those
// windows are cut from the page-first array, the pages the outer windows
// pin taking none of the budget; the windows per level and the page requests
// were recorded on the commit whose iterator walked every vertex.
func TestRootWindowSchedule(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(23)), 400, 2400)
	p, err := plan.Prepare(graph.Square(), plan.Options{CoverMode: rbi.AllRed})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pageSize int
		compress bool
		perLevel string
		requests uint64
	}{
		{256, false, "[6 93 1035 1035]", 73313},
		{128, true, "[6 93 1104 1104]", 68599},
	} {
		db := buildDBOpts(t, g, c.pageSize, c.compress)
		e, err := NewEngine(db, Options{Threads: 2, BufferFrames: db.NumPages() / 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunSpecContext(context.Background(), RunSpec{Plan: p})
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.WindowsPerLevel); got != c.perLevel || res.Profile.LogicalReads != c.requests || res.Count != graph.CountOccurrences(g, graph.Square()) {
			t.Errorf("page=%d compress=%v: windows %s, %d requests, count %d; recorded %s, %d requests",
				c.pageSize, c.compress, got, res.Profile.LogicalReads, res.Count, c.perLevel, c.requests)
		}
	}
}
