package exp

import (
	"fmt"

	"dualsim/internal/core"
	"dualsim/internal/graph"
)

// TableCostModel validates the paper's I/O cost analysis (Section 5.3,
// Equation 1): measured physical reads for q1 and q4 across buffer sizes,
// against the model's prediction with all reduction factors s_i = 1 (an
// upper bound) and with the measured reduction factors back-substituted.
func TableCostModel(e *Env) (*Table, error) {
	t := &Table{
		ID:     "CostModel",
		Title:  "Equation 1: predicted vs measured page reads (LJ stand-in)",
		Header: []string{"query", "buffer", "measured reads", "model (s=1)", "measured/model"},
		Notes: []string{
			"Equation 1 is an asymptotic model: page fragmentation and allocation floors add a constant factor,",
			"but the trend matches: the ratio stays near constant per query while reads grow as the buffer shrinks",
		},
	}
	g, err := e.graphByName("LJ")
	if err != nil {
		return nil, err
	}
	db, _, err := e.buildDBOpts256(g, "costmodel-LJ")
	if err != nil {
		return nil, err
	}
	defer db.Close()
	for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4()} {
		for _, frac := range []float64{0.10, 0.20, 0.40} {
			res, err := runOnDBOpts(e, db, q, core.Options{Threads: 1, BufferFraction: frac})
			if err != nil {
				return nil, err
			}
			eng, err := core.NewEngine(db, core.Options{Threads: 1, BufferFraction: frac})
			if err != nil {
				return nil, err
			}
			model := eng.ModelFor(res.Plan.K, nil)
			eng.Close()
			bound := model.PredictedReads()
			ratio := float64(res.Profile.PagesRead) / bound
			t.AddRow(q.Name(), fmt.Sprintf("%.0f%%", frac*100),
				fmtCount(res.Profile.PagesRead), fmt.Sprintf("%.0f", bound), fmt.Sprintf("%.2f", ratio))
		}
	}
	return t, nil
}
