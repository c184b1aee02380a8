package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dualsim/internal/graph"
)

func TestCostModelBasics(t *testing.T) {
	m := CostModel{Edges: 1000, BufferWords: 400, PageWords: 100, Levels: 1}
	if got := m.PredictedReads(); got != 10 {
		t.Fatalf("1-level scan = %f reads, want 10", got)
	}
	// Degenerate inputs give zero, not NaN.
	for _, bad := range []CostModel{
		{}, {Edges: -1, BufferWords: 1, PageWords: 1, Levels: 2},
		{Edges: 1, BufferWords: 0, PageWords: 1, Levels: 2},
	} {
		if got := bad.PredictedReads(); got != 0 {
			t.Errorf("degenerate model %+v = %f, want 0", bad, got)
		}
	}
}

func TestCostModelMonotonicity(t *testing.T) {
	f := func(e16, m16, b8 uint16, lvl8 uint8) bool {
		edges := 1000 + float64(e16%50000)
		buf := 100 + float64(m16%10000)
		page := 10 + float64(b8%200)
		levels := 2 + int(lvl8%3)
		m := CostModel{Edges: edges, BufferWords: buf, PageWords: page, Levels: levels}
		base := m.PredictedReads()
		// More memory must never cost more reads.
		m2 := m
		m2.BufferWords = buf * 2
		if m2.PredictedReads() > base {
			return false
		}
		// Deeper plans must never cost fewer reads.
		m3 := m
		m3.Levels = levels + 1
		if m3.PredictedReads() < base {
			return false
		}
		// Reduction factors < 1 must never cost more reads.
		red := make([]float64, levels)
		for i := range red {
			red[i] = 0.5
		}
		red[0] = 1
		m4 := m
		m4.Reduction = red
		return m4.PredictedReads() <= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelTracksMeasuredReads(t *testing.T) {
	// Equation 1 is asymptotic: fragmentation and allocation floors add a
	// constant factor, but measured reads must track the model within a
	// small envelope.
	rng := rand.New(rand.NewSource(88))
	g := randomGraph(rng, 300, 2100)
	db := buildDB(t, g, 128)
	e, err := NewEngine(db, Options{Threads: 2, BufferFrames: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4()} {
		res, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		model := e.ModelFor(res.Plan.K, nil)
		predicted := model.PredictedReads()
		if float64(res.Profile.PagesRead) > predicted*4 {
			// Allow slack: page fragmentation and span-atomic windows cost
			// a constant factor the word-level model ignores.
			t.Errorf("%s: measured %d reads exceeds model bound %.0f",
				q.Name(), res.Profile.PagesRead, predicted)
		}
	}
}
