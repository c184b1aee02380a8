package core

import (
	"context"
	"fmt"
	"testing"

	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

// scheduleKey names one golden run: query, base-file encoding, and buffer
// configuration.
type scheduleKey struct {
	query      string
	compressed bool
	frames     int
}

// schedule is one pinned I/O schedule: level-1 windows, windows per level
// (fmt.Sprint of Result.WindowsPerLevel), and pages physically read.
type schedule struct {
	l1       int
	perLevel string
	reads    uint64
}

func scheduleOf(res *Result) schedule {
	return schedule{res.Level1Windows, fmt.Sprint(res.WindowsPerLevel), res.IO.PhysicalReads}
}

// Recorded on the commit before level 1 moved behind Sweep (PR 11's tree,
// run.loadWindow + windowIterator at every level); the 96-frame rows on the
// last commit that could carve speculative-read frames out of a level's
// window budget, run there with the carve off. One I/O worker makes the
// pool's eviction order, and with it the physical read count, deterministic.
var (
	goldenFresh = map[scheduleKey]schedule{
		{"q1-triangle", false, 40}:        {9, "[9 132]", 1088},
		{"q2-square", false, 40}:          {13, "[13 111 1861]", 13177},
		{"q3-chordalsquare", false, 40}:   {9, "[9 132]", 1088},
		{"q4-clique4", false, 40}:         {13, "[13 111 740]", 5609},
		{"q5-house", false, 40}:           {13, "[13 111 1982]", 14878},
		{"q1-triangle", false, 96}:        {3, "[3 43]", 533},
		{"q2-square", false, 96}:          {5, "[5 19 328]", 2748},
		{"q3-chordalsquare", false, 96}:   {3, "[3 43]", 533},
		{"q4-clique4", false, 96}:         {5, "[5 19 150]", 1572},
		{"q5-house", false, 96}:           {5, "[5 19 348]", 3071},
		{"q1-triangle", false, 4096}:      {1, "[1 0]", 267},
		{"q2-square", false, 4096}:        {1, "[1 0 0]", 267},
		{"q3-chordalsquare", false, 4096}: {1, "[1 0]", 267},
		{"q4-clique4", false, 4096}:       {1, "[1 0 0]", 267},
		{"q5-house", false, 4096}:         {1, "[1 0 0]", 267},
		{"q1-triangle", true, 40}:         {4, "[4 40]", 272},
		{"q2-square", true, 40}:           {6, "[6 24 342]", 1683},
		{"q3-chordalsquare", true, 40}:    {4, "[4 40]", 272},
		{"q4-clique4", true, 40}:          {6, "[6 24 142]", 883},
		{"q5-house", true, 40}:            {6, "[6 24 363]", 1779},
		{"q1-triangle", true, 96}:         {2, "[2 9]", 152},
		{"q2-square", true, 96}:           {2, "[2 3 17]", 244},
		{"q3-chordalsquare", true, 96}:    {2, "[2 9]", 152},
		{"q4-clique4", true, 96}:          {2, "[2 3 10]", 213},
		{"q5-house", true, 96}:            {2, "[2 3 24]", 274},
		{"q1-triangle", true, 4096}:       {1, "[1 0]", 122},
		{"q2-square", true, 4096}:         {1, "[1 0 0]", 122},
		{"q3-chordalsquare", true, 4096}:  {1, "[1 0]", 122},
		{"q4-clique4", true, 4096}:        {1, "[1 0 0]", 122},
		{"q5-house", true, 4096}:          {1, "[1 0 0]", 122},
	}
	// Resumed from the second level-1 checkpoint on a fresh engine;
	// configurations with fewer than three level-1 windows have no entry.
	goldenResumed = map[scheduleKey]schedule{
		{"q1-triangle", false, 40}:      {9, "[9 78]", 674},
		{"q2-square", false, 40}:        {13, "[13 85 1325]", 9390},
		{"q3-chordalsquare", false, 40}: {9, "[9 78]", 674},
		{"q4-clique4", false, 40}:       {13, "[13 85 550]", 4172},
		{"q5-house", false, 40}:         {13, "[13 85 1691]", 12602},
		{"q1-triangle", false, 96}:      {3, "[3 1]", 89},
		{"q2-square", false, 96}:        {5, "[5 7 53]", 515},
		{"q3-chordalsquare", false, 96}: {3, "[3 1]", 89},
		{"q4-clique4", false, 96}:       {5, "[5 7 20]", 338},
		{"q5-house", false, 96}:         {5, "[5 7 174]", 1437},
		{"q1-triangle", true, 40}:       {4, "[4 5]", 64},
		{"q2-square", true, 40}:         {6, "[6 9 67]", 398},
		{"q3-chordalsquare", true, 40}:  {4, "[4 5]", 64},
		{"q4-clique4", true, 40}:        {6, "[6 9 28]", 242},
		{"q5-house", true, 40}:          {6, "[6 9 176]", 840},
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
}

// TestWindowScheduleGolden pins the exact window/page schedule of solo
// runs — not just the embedding counts — on a deterministic gen fixture:
// the five paper queries × {plain, compressed} × a starved buffer (level 1
// needs >= 3 windows), a mid-sized one, and a roomy one (level 1 fits in one window, which is
// then all internal area: no deeper level is visited); plus,
// wherever level 1 has >= 3 windows, a run resumed from the second window
// boundary. "The solo partition through Sweep == the solo iterator" means
// these constants never change.
func TestWindowScheduleGolden(t *testing.T) {
	g := gen.ChungLu(600, 2400, 2.5, 7)
	for _, compressed := range []bool{false, true} {
		db := buildDB(t, g, 128)
		if compressed {
			db = buildCompressedDB(t, g, 128)
		}
		for _, frames := range []int{40, 96, 4096} {
			for _, q := range graph.PaperQueries() {
				k := scheduleKey{q.Name(), compressed, frames}
				p := mustPlan(t, q)
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
				if got, want := scheduleOf(res), goldenFresh[k]; got != want {
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
				if got := scheduleOf(res2); got != want {
					t.Errorf("%+v resumed: schedule %+v, golden %+v", k, got, want)
				}
				if got, want := [2]uint64{res2.Internal, res2.External}, goldenTally[k]; got != want {
					t.Errorf("%+v resumed: internal/external %v, golden %v", k, got, want)
				}
			}
		}
	}
}
