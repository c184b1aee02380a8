package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dualsim/internal/delta"
	"dualsim/internal/gen"
	"dualsim/internal/graph"
)

// orderBoundsGolden is the Internal/External split of every configuration of
// TestOrderBoundsExact, recorded on the commit before order bounds clipped
// the kernels' operands (total order and partial orders checked per
// candidate, after intersecting whole lists). Key: graph / query / encoding /
// buffer / overlay.
var orderBoundsGolden = map[string][2]uint64{
	"g0/q0/compress=false/roomy=true/overlay=false":  {463, 0},
	"g0/q0/compress=false/roomy=false/overlay=false": {261, 202},
	"g0/q1/compress=false/roomy=true/overlay=false":  {4347, 0},
	"g0/q1/compress=false/roomy=false/overlay=false": {129, 4218},
	"g0/q2/compress=false/roomy=true/overlay=false":  {3541, 0},
	"g0/q2/compress=false/roomy=false/overlay=false": {2126, 1415},
	"g0/q3/compress=false/roomy=true/overlay=false":  {171, 0},
	"g0/q3/compress=false/roomy=false/overlay=false": {37, 134},
	"g0/q4/compress=false/roomy=true/overlay=false":  {79792, 0},
	"g0/q4/compress=false/roomy=false/overlay=false": {6447, 73345},
	"g0/q5/compress=false/roomy=true/overlay=false":  {143244, 0},
	"g0/q5/compress=false/roomy=false/overlay=false": {143244, 0},
	"g0/q6/compress=false/roomy=true/overlay=false":  {412364, 0},
	"g0/q6/compress=false/roomy=false/overlay=false": {31076, 381288},
	"g0/q7/compress=false/roomy=true/overlay=false":  {11221, 0},
	"g0/q7/compress=false/roomy=false/overlay=false": {11221, 0},
	"g0/q0/compress=true/roomy=true/overlay=false":   {463, 0},
	"g0/q0/compress=true/roomy=false/overlay=false":  {349, 114},
	"g0/q1/compress=true/roomy=true/overlay=false":   {4347, 0},
	"g0/q1/compress=true/roomy=false/overlay=false":  {481, 3866},
	"g0/q2/compress=true/roomy=true/overlay=false":   {3541, 0},
	"g0/q2/compress=true/roomy=false/overlay=false":  {2613, 928},
	"g0/q3/compress=true/roomy=true/overlay=false":   {171, 0},
	"g0/q3/compress=true/roomy=false/overlay=false":  {109, 62},
	"g0/q4/compress=true/roomy=true/overlay=false":   {79792, 0},
	"g0/q4/compress=true/roomy=false/overlay=false":  {21824, 57968},
	"g0/q5/compress=true/roomy=true/overlay=false":   {143244, 0},
	"g0/q5/compress=true/roomy=false/overlay=false":  {143244, 0},
	"g0/q6/compress=true/roomy=true/overlay=false":   {412364, 0},
	"g0/q6/compress=true/roomy=false/overlay=false":  {106561, 305803},
	"g0/q7/compress=true/roomy=true/overlay=false":   {11221, 0},
	"g0/q7/compress=true/roomy=false/overlay=false":  {11221, 0},
	"g0/q0/compress=false/roomy=true/overlay=true":   {463, 0},
	"g0/q0/compress=false/roomy=false/overlay=true":  {261, 202},
	"g0/q1/compress=false/roomy=true/overlay=true":   {4347, 0},
	"g0/q1/compress=false/roomy=false/overlay=true":  {129, 4218},
	"g0/q2/compress=false/roomy=true/overlay=true":   {3541, 0},
	"g0/q2/compress=false/roomy=false/overlay=true":  {2126, 1415},
	"g0/q3/compress=false/roomy=true/overlay=true":   {171, 0},
	"g0/q3/compress=false/roomy=false/overlay=true":  {37, 134},
	"g0/q4/compress=false/roomy=true/overlay=true":   {79792, 0},
	"g0/q4/compress=false/roomy=false/overlay=true":  {6447, 73345},
	"g0/q5/compress=false/roomy=true/overlay=true":   {143259, 0},
	"g0/q5/compress=false/roomy=false/overlay=true":  {143259, 0},
	"g0/q6/compress=false/roomy=true/overlay=true":   {412705, 0},
	"g0/q6/compress=false/roomy=false/overlay=true":  {31076, 381629},
	"g0/q7/compress=false/roomy=true/overlay=true":   {11227, 0},
	"g0/q7/compress=false/roomy=false/overlay=true":  {11227, 0},
	"g0/q0/compress=true/roomy=true/overlay=true":    {463, 0},
	"g0/q0/compress=true/roomy=false/overlay=true":   {349, 114},
	"g0/q1/compress=true/roomy=true/overlay=true":    {4347, 0},
	"g0/q1/compress=true/roomy=false/overlay=true":   {481, 3866},
	"g0/q2/compress=true/roomy=true/overlay=true":    {3541, 0},
	"g0/q2/compress=true/roomy=false/overlay=true":   {2613, 928},
	"g0/q3/compress=true/roomy=true/overlay=true":    {171, 0},
	"g0/q3/compress=true/roomy=false/overlay=true":   {109, 62},
	"g0/q4/compress=true/roomy=true/overlay=true":    {79792, 0},
	"g0/q4/compress=true/roomy=false/overlay=true":   {21824, 57968},
	"g0/q5/compress=true/roomy=true/overlay=true":    {143259, 0},
	"g0/q5/compress=true/roomy=false/overlay=true":   {143259, 0},
	"g0/q6/compress=true/roomy=true/overlay=true":    {412705, 0},
	"g0/q6/compress=true/roomy=false/overlay=true":   {106561, 306144},
	"g0/q7/compress=true/roomy=true/overlay=true":    {11227, 0},
	"g0/q7/compress=true/roomy=false/overlay=true":   {11227, 0},
	"g1/q0/compress=false/roomy=true/overlay=false":  {68, 0},
	"g1/q0/compress=false/roomy=false/overlay=false": {12, 56},
	"g1/q1/compress=false/roomy=true/overlay=false":  {407, 0},
	"g1/q1/compress=false/roomy=false/overlay=false": {4, 403},
	"g1/q2/compress=false/roomy=true/overlay=false":  {28, 0},
	"g1/q2/compress=false/roomy=false/overlay=false": {2, 26},
	"g1/q3/compress=false/roomy=true/overlay=false":  {0, 0},
	"g1/q3/compress=false/roomy=false/overlay=false": {0, 0},
	"g1/q4/compress=false/roomy=true/overlay=false":  {495, 0},
	"g1/q4/compress=false/roomy=false/overlay=false": {4, 491},
	"g1/q5/compress=false/roomy=true/overlay=false":  {10500, 0},
	"g1/q5/compress=false/roomy=false/overlay=false": {10500, 0},
	"g1/q6/compress=false/roomy=true/overlay=false":  {10796, 0},
	"g1/q6/compress=false/roomy=false/overlay=false": {60, 10736},
	"g1/q7/compress=false/roomy=true/overlay=false":  {4357, 0},
	"g1/q7/compress=false/roomy=false/overlay=false": {4357, 0},
	"g1/q0/compress=true/roomy=true/overlay=false":   {68, 0},
	"g1/q0/compress=true/roomy=false/overlay=false":  {18, 50},
	"g1/q1/compress=true/roomy=true/overlay=false":   {407, 0},
	"g1/q1/compress=true/roomy=false/overlay=false":  {9, 398},
	"g1/q2/compress=true/roomy=true/overlay=false":   {28, 0},
	"g1/q2/compress=true/roomy=false/overlay=false":  {5, 23},
	"g1/q3/compress=true/roomy=true/overlay=false":   {0, 0},
	"g1/q3/compress=true/roomy=false/overlay=false":  {0, 0},
	"g1/q4/compress=true/roomy=true/overlay=false":   {495, 0},
	"g1/q4/compress=true/roomy=false/overlay=false":  {11, 484},
	"g1/q5/compress=true/roomy=true/overlay=false":   {10500, 0},
	"g1/q5/compress=true/roomy=false/overlay=false":  {10500, 0},
	"g1/q6/compress=true/roomy=true/overlay=false":   {10796, 0},
	"g1/q6/compress=true/roomy=false/overlay=false":  {80, 10716},
	"g1/q7/compress=true/roomy=true/overlay=false":   {4357, 0},
	"g1/q7/compress=true/roomy=false/overlay=false":  {4357, 0},
	"g1/q0/compress=false/roomy=true/overlay=true":   {69, 0},
	"g1/q0/compress=false/roomy=false/overlay=true":  {13, 56},
	"g1/q1/compress=false/roomy=true/overlay=true":   {408, 0},
	"g1/q1/compress=false/roomy=false/overlay=true":  {4, 404},
	"g1/q2/compress=false/roomy=true/overlay=true":   {28, 0},
	"g1/q2/compress=false/roomy=false/overlay=true":  {2, 26},
	"g1/q3/compress=false/roomy=true/overlay=true":   {0, 0},
	"g1/q3/compress=false/roomy=false/overlay=true":  {0, 0},
	"g1/q4/compress=false/roomy=true/overlay=true":   {499, 0},
	"g1/q4/compress=false/roomy=false/overlay=true":  {4, 495},
	"g1/q5/compress=false/roomy=true/overlay=true":   {10579, 0},
	"g1/q5/compress=false/roomy=false/overlay=true":  {10579, 0},
	"g1/q6/compress=false/roomy=true/overlay=true":   {10975, 0},
	"g1/q6/compress=false/roomy=false/overlay=true":  {60, 10915},
	"g1/q7/compress=false/roomy=true/overlay=true":   {4382, 0},
	"g1/q7/compress=false/roomy=false/overlay=true":  {4382, 0},
	"g1/q0/compress=true/roomy=true/overlay=true":    {69, 0},
	"g1/q0/compress=true/roomy=false/overlay=true":   {19, 50},
	"g1/q1/compress=true/roomy=true/overlay=true":    {408, 0},
	"g1/q1/compress=true/roomy=false/overlay=true":   {9, 399},
	"g1/q2/compress=true/roomy=true/overlay=true":    {28, 0},
	"g1/q2/compress=true/roomy=false/overlay=true":   {5, 23},
	"g1/q3/compress=true/roomy=true/overlay=true":    {0, 0},
	"g1/q3/compress=true/roomy=false/overlay=true":   {0, 0},
	"g1/q4/compress=true/roomy=true/overlay=true":    {499, 0},
	"g1/q4/compress=true/roomy=false/overlay=true":   {11, 488},
	"g1/q5/compress=true/roomy=true/overlay=true":    {10579, 0},
	"g1/q5/compress=true/roomy=false/overlay=true":   {10579, 0},
	"g1/q6/compress=true/roomy=true/overlay=true":    {10975, 0},
	"g1/q6/compress=true/roomy=false/overlay=true":   {81, 10894},
	"g1/q7/compress=true/roomy=true/overlay=true":    {4382, 0},
	"g1/q7/compress=true/roomy=false/overlay=true":   {4382, 0},
}

// TestOrderBoundsExact: clipping every operand to the interval the
// symmetry-breaking orders leave open admits exactly the tuples the deleted
// post-filters admitted. Random gen graphs × the paper queries plus random
// connected ones × {plain, compressed} × {roomy, three or more level-1
// windows} × {no overlay, one overlay batch}: the count equals brute force
// and the Internal/External split is the parent's, embedding for embedding.
func TestOrderBoundsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	queries := graph.PaperQueries()
	for i := 0; i < 3; i++ {
		queries = append(queries, randomConnectedQuery(rng, 3+rng.Intn(3)))
	}
	graphs := []*graph.Graph{gen.ChungLu(200, 800, 2.3, 11), gen.ErdosRenyi(150, 600, 12)}
	for gi, base := range graphs {
		for _, overlay := range []bool{false, true} {
			for _, compress := range []bool{false, true} {
				db := buildDBOpts(t, base, 128, compress)
				want, spec := base, RunSpec{}
				if overlay {
					st := delta.NewStore(base.NumVertices(), db.Epoch())
					want = mutateRandom(t, st, base, rand.New(rand.NewSource(int64(192+gi))), 1, "mixed")
					spec.Overlay = st.Snapshot()
				}
				for qi, q := range queries {
					count := graph.CountOccurrences(want, q)
					spec.Plan = mustPlan(t, q)
					for _, roomy := range []bool{true, false} {
						frames := 4 * db.NumPages()
						if !roomy {
							frames = max(12, db.NumPages()/4)
						}
						key := fmt.Sprintf("g%d/q%d/compress=%v/roomy=%v/overlay=%v", gi, qi, compress, roomy, overlay)
						e, err := NewEngine(db, Options{Threads: 2, IOWorkers: 1, BufferFrames: frames})
						if err != nil {
							t.Fatal(err)
						}
						res, err := e.RunSpecContext(context.Background(), spec)
						e.Close()
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						if !roomy && res.Level1Windows < 3 {
							t.Fatalf("%s: %d level-1 windows, want a multi-window run", key, res.Level1Windows)
						}
						if res.Count != count {
							t.Errorf("%s: count %d, brute force %d", key, res.Count, count)
						}
						if got, want := [2]uint64{res.Internal, res.External}, orderBoundsGolden[key]; got != want {
							t.Errorf("%s: internal/external %v, parent's %v", key, got, want)
						}
					}
				}
			}
		}
	}
}
