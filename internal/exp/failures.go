package exp

import (
	"dualsim/internal/baseline/psgl"
	"dualsim/internal/baseline/ttj"
	"dualsim/internal/graph"
)

// TableFailureBoundary demonstrates the paper's central robustness claim at
// reproduction scale. The real datasets are 10^3-10^6 times larger than the
// stand-ins, so the paper's absolute memory limits never bind here; instead
// each simulated worker gets a memory budget proportional to its share of
// the graph (mirroring the paper's fixed cluster against growing data).
// Under that proportional budget the distributed baselines fail exactly the
// way Figures 13-14 report — simple queries succeed, complex queries blow
// the partial-result memory — while DUALSIM completes everything with the
// same bounded buffer.
func TableFailureBoundary(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Failures",
		Title:  "Failure boundary under proportional per-worker memory (PSgL / TTJ-SparkSQL vs DUALSIM)",
		Header: []string{"dataset", "query", "DUALSIM", "PSgL", "TTJ-SparkSQL"},
		Notes: []string{
			"per-worker budget = 96 bytes x |E| / workers, the analog of the paper's fixed 32GB slaves",
			"paper: PSgL fails q2/q3 on LJ and q5 everywhere; TTJ-SparkSQL fails on large partitions; DUALSIM never fails",
		},
	}
	for _, name := range []string{"WG", "WT", "LJ"} {
		g, err := e.graphByName(name)
		if err != nil {
			return nil, err
		}
		budget := max(int64(96)*int64(g.NumEdges())/int64(e.Cfg.ClusterWorkers), 1024)
		for _, q := range graph.PaperQueries() {
			ds, err := e.DualSim(name, q)
			if err != nil {
				return nil, err
			}
			row := []string{name, q.Name(), fmtDur(ds.ExecTime)}
			if cnt, stats, err := psgl.Run(g, q, psgl.Options{
				Workers:         e.Cfg.ClusterWorkers,
				MemoryPerWorker: budget,
			}); err != nil {
				row = append(row, failCell(err))
			} else if cnt != ds.Count {
				row = append(row, "WRONG COUNT")
			} else {
				row = append(row, fmtDur(stats.Elapsed))
			}
			dir := e.ttjDir()
			if cnt, stats, err := ttj.Run(g, q, ttj.Options{
				Workers:         e.Cfg.ClusterWorkers,
				TempDir:         dir,
				MemoryPerWorker: budget,
				FailOnOverflow:  true,
			}); err != nil {
				row = append(row, failCell(err))
			} else if cnt != ds.Count {
				row = append(row, "WRONG COUNT")
			} else {
				row = append(row, fmtDur(stats.Elapsed))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}
