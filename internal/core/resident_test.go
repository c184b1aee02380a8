package core

import (
	"context"
	"testing"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

// residentBelow is the schedule of each run one frame short of the resident
// threshold (pages + one maximal vertex per deeper level). Level-1 and
// middle-level windows and the reads were recorded on the commit before
// buffer.Allocate learned the page count: below the threshold the paper's
// split — and with it every window and page read — is unchanged. The last
// level's entry (passes, one per window above it) and the requests were
// re-recorded when the last level became a stream.
var residentBelow = map[scheduleKey]schedule{
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

// TestResidentAllocation pins the resident rule of the solo budget policy on
// TestWindowScheduleGolden's fixture: with frames for the whole graph plus
// one maximal vertex per deeper level, level 1 takes exactly the graph — one
// window, internal only, no deeper level visited, every page read once on a
// cold pool — and one frame short of that the run is the parent's, window
// for window and read for read.
func TestResidentAllocation(t *testing.T) {
	g := gen.ChungLu(600, 2400, 2.5, 7)
	for _, compressed := range []bool{false, true} {
		db := buildDB(t, g, 128)
		if compressed {
			db = buildCompressedDB(t, g, 128)
		}
		pages := db.NumPages()
		probe, err := NewEngine(db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		maxSpan := probe.maxSpan
		probe.Close()
		for _, q := range graph.PaperQueries() {
			p := mustPlan(t, q)
			want := goldenTally[scheduleKey{q.Name(), compressed, 4096}][0]
			threshold := pages + (p.K-1)*maxSpan
			for _, frames := range []int{threshold - 1, threshold, 4 * pages} {
				k := scheduleKey{q.Name(), compressed, frames}
				e, err := NewEngine(db, Options{Threads: 2, IOWorkers: 1, BufferFrames: frames})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.RunSpecContext(context.Background(), RunSpec{Plan: p})
				e.Close()
				if err != nil {
					t.Fatalf("%+v: %v", k, err)
				}
				if res.Count != want {
					t.Errorf("%+v: count %d, want %d", k, res.Count, want)
				}
				if frames < threshold {
					if got, golden := scheduleOf(res), residentBelow[k]; !got.within(golden) {
						t.Errorf("%+v: schedule %+v below the threshold, parent's %+v", k, got, golden)
					}
					continue
				}
				deep := 0
				for _, n := range res.WindowsPerLevel[1:] {
					deep += n
				}
				if res.Level1Windows != 1 || deep != 0 || res.External != 0 {
					t.Errorf("%+v: windows per level %v, external %d; want one level-1 window and nothing else",
						k, res.WindowsPerLevel, res.External)
				}
				if res.Profile.PagesRead != uint64(pages) {
					t.Errorf("%+v: %d physical reads of %d pages", k, res.Profile.PagesRead, pages)
				}
			}
		}
	}
}
