package exp

import (
	"fmt"
	"runtime"
	"time"

	"dualsim/internal/buffer"
	"dualsim/internal/core"
	"dualsim/internal/dataset"
	"dualsim/internal/gen"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// buildDBOpts builds a database for an explicit graph with an optional
// evolving-graph append fraction.
func (e *Env) buildDBOpts(g *graph.Graph, name string, appendFraction float64) (*storage.DB, *storage.BuildStats, error) {
	path := fmt.Sprintf("%s/%s.db", e.Cfg.TempDir, name)
	stats, err := storage.BuildFromGraph(path, g, storage.BuildOptions{
		PageSize:       e.Cfg.PageSize,
		TempDir:        e.Cfg.TempDir,
		AppendFraction: appendFraction,
	})
	if err != nil {
		return nil, nil, err
	}
	db, err := storage.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return db, stats, nil
}

// runOnDB runs DUALSIM with the environment defaults on an explicit DB.
func runOnDB(e *Env, db *storage.DB, q *graph.Query) (*core.Result, error) {
	return runOnDBOpts(e, db, q, core.Options{})
}

func runOnDBOpts(e *Env, db *storage.DB, q *graph.Query, opts core.Options) (*core.Result, error) {
	if opts.Threads == 0 {
		opts.Threads = e.Cfg.Threads
	}
	if opts.BufferFraction == 0 && opts.BufferFrames == 0 {
		opts.BufferFraction = e.Cfg.BufferFraction
	}
	eng, err := core.NewEngine(db, opts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	return eng.Run(q)
}

// Fig9BufferSize reproduces Figure 9: DUALSIM's elapsed time with buffers
// from 5% to 25% of the graph size, relative to the 25% run, on LJ and OK
// for q1 and q4.
func Fig9BufferSize(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Figure 9",
		Title:  "Relative elapsed time vs buffer size (1.00 = 25% buffer)",
		Header: []string{"dataset/query", "5%", "10%", "15%", "20%", "25%"},
		Notes: []string{
			"paper: flat for q1; at most 2.2-2.6x at 5% for q4",
		},
	}
	fracs := []float64{0.05, 0.10, 0.15, 0.20, 0.25}
	for _, name := range []string{"LJ", "OK"} {
		// Dedicated fine-grained databases: small pages and one thread keep
		// the 5% budget above the engine's frame floor, so the fractions
		// genuinely differ; simulated latency surfaces the extra reads.
		g, err := e.graphByName(name)
		if err != nil {
			return nil, err
		}
		db, _, err := e.buildDBOpts256(g, "fig9-"+name)
		if err != nil {
			return nil, err
		}
		for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4()} {
			times := make([]float64, len(fracs))
			var baseCount uint64
			for i, f := range fracs {
				res, err := runOnDBOpts(e, db, q, core.Options{
					Threads:        1,
					BufferFraction: f,
					PerPageLatency: 4 * time.Microsecond,
					SeekLatency:    20 * time.Microsecond,
				})
				if err != nil {
					db.Close()
					return nil, err
				}
				times[i] = res.ExecTime.Seconds()
				if i == 0 {
					baseCount = res.Count
				} else if res.Count != baseCount {
					db.Close()
					return nil, fmt.Errorf("exp: fig9 count mismatch on %s/%s", name, q.Name())
				}
			}
			base := times[len(times)-1]
			row := []string{fmt.Sprintf("%s/%s", name, q.Name())}
			for _, x := range times {
				row = append(row, fmt.Sprintf("%.2f", x/base))
			}
			t.AddRow(row...)
		}
		db.Close()
	}
	return t, nil
}

// buildDBOpts256 builds a dedicated 256-byte-page database for experiments
// that need many pages relative to the buffer floor.
func (e *Env) buildDBOpts256(g *graph.Graph, name string) (*storage.DB, *storage.BuildStats, error) {
	path := fmt.Sprintf("%s/%s.db", e.Cfg.TempDir, name)
	stats, err := storage.BuildFromGraph(path, g, storage.BuildOptions{
		PageSize: 256,
		TempDir:  e.Cfg.TempDir,
	})
	if err != nil {
		return nil, nil, err
	}
	db, err := storage.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return db, stats, nil
}

// Fig10SingleMachineDatasets reproduces Figure 10: single-machine DUALSIM
// vs TwinTwigJoin (Hadoop and PG variants) across datasets for q1 and q4.
func Fig10SingleMachineDatasets(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Figure 10",
		Title:  "Single machine: DUALSIM vs TwinTwigJoin across datasets",
		Header: []string{"dataset", "query", "DUALSIM", "TTJ", "TTJ-PG", "speedup vs TTJ"},
		Notes: []string{
			"paper: DUALSIM wins everywhere, up to 318x; TTJ fails on YH",
		},
	}
	for _, name := range dataset.Names() {
		g, err := e.graphByName(name)
		if err != nil {
			return nil, err
		}
		for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4()} {
			ds, err := e.DualSim(name, q)
			if err != nil {
				return nil, err
			}
			row := []string{name, q.Name(), fmtDur(ds.ExecTime)}
			ttjCell, speedCell := "", "n/a"
			if cnt, stats, err := e.TTJSingle(g, q); err != nil {
				ttjCell = failCell(err)
			} else {
				if cnt != ds.Count {
					return nil, fmt.Errorf("exp: fig10 %s/%s: TTJ %d != DUALSIM %d", name, q.Name(), cnt, ds.Count)
				}
				ttjCell = fmtDur(stats.Elapsed)
				speedCell = fmtRatio(stats.Elapsed.Seconds(), ds.ExecTime.Seconds())
			}
			pgCell := ""
			if _, stats, err := e.TTJPG(g, q); err != nil {
				pgCell = failCell(err)
			} else {
				pgCell = fmtDur(stats.Elapsed)
			}
			row = append(row, ttjCell, pgCell, speedCell)
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig11SingleMachineQueries reproduces Figure 11: all five queries on WG,
// WT, and LJ in a single machine.
func Fig11SingleMachineQueries(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Figure 11",
		Title:  "Single machine: varying queries (q1-q5) on WG, WT, LJ",
		Header: []string{"dataset", "query", "DUALSIM", "TTJ", "speedup"},
		Notes: []string{
			"paper: up to 866x (q2), TTJ cannot run q5 and fails q3 on LJ",
		},
	}
	for _, name := range []string{"WG", "WT", "LJ"} {
		g, err := e.graphByName(name)
		if err != nil {
			return nil, err
		}
		for qi, q := range graph.PaperQueries() {
			ds, err := e.DualSim(name, q)
			if err != nil {
				return nil, err
			}
			ttjCell, speed := "", "n/a"
			if qi == 4 {
				// The paper's TwinTwigJoin binary cannot run q5; honoring
				// that here also avoids its guaranteed intermediate blow-up.
				ttjCell = "cannot run"
			} else if cnt, stats, err := e.TTJSingle(g, q); err != nil {
				ttjCell = failCell(err)
			} else {
				if cnt != ds.Count {
					return nil, fmt.Errorf("exp: fig11 %s/%s: TTJ %d != DUALSIM %d", name, q.Name(), cnt, ds.Count)
				}
				ttjCell = fmtDur(stats.Elapsed)
				speed = fmtRatio(stats.Elapsed.Seconds(), ds.ExecTime.Seconds())
			}
			t.AddRow(name, q.Name(), fmtDur(ds.ExecTime), ttjCell, speed)
		}
	}
	return t, nil
}

// frSamples generates the 20%..100% Friendster-stand-in samples.
func (e *Env) frSamples() ([]float64, []*graph.Graph, error) {
	spec, err := dataset.ByName("FR")
	if err != nil {
		return nil, nil, err
	}
	full := spec.Generate(e.Cfg.Scale)
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	graphs := make([]*graph.Graph, len(fracs))
	for i, f := range fracs {
		s := gen.SampleVertices(full, f, 777)
		rg, _ := graph.ReorderByDegree(s)
		graphs[i] = rg
	}
	return fracs, graphs, nil
}

// Fig12GraphSize reproduces Figure 12: single-machine scaling over 20-100%
// vertex samples of FR for q1, q2, q3.
func Fig12GraphSize(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Figure 12",
		Title:  "Single machine: varying graph size (FR samples)",
		Header: []string{"sample", "query", "DUALSIM", "TTJ", "speedup"},
		Notes: []string{
			"paper: gap grows with graph size; TTJ fails q2/q3 above 40%",
		},
	}
	fracs, graphs, err := e.frSamples()
	if err != nil {
		return nil, err
	}
	queries := []*graph.Query{graph.Triangle(), graph.Square(), graph.ChordalSquare()}
	for i, frac := range fracs {
		g := graphs[i]
		db, _, err := e.buildDBOpts(g, fmt.Sprintf("fr-%02.0f", frac*100), 0)
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			ds, err := runOnDB(e, db, q)
			if err != nil {
				db.Close()
				return nil, err
			}
			ttjCell, speed := "", "n/a"
			if cnt, stats, err := e.TTJSingle(g, q); err != nil {
				ttjCell = failCell(err)
			} else {
				if cnt != ds.Count {
					db.Close()
					return nil, fmt.Errorf("exp: fig12 %s: TTJ %d != DUALSIM %d", q.Name(), cnt, ds.Count)
				}
				ttjCell = fmtDur(stats.Elapsed)
				speed = fmtRatio(stats.Elapsed.Seconds(), ds.ExecTime.Seconds())
			}
			t.AddRow(fmt.Sprintf("%.0f%%", frac*100), q.Name(), fmtDur(ds.ExecTime), ttjCell, speed)
		}
		db.Close()
	}
	return t, nil
}

// Fig13Cluster reproduces Figure 13: single-machine DUALSIM against the
// simulated 50-slave cluster running PSgL, TTJ, and TTJ-SparkSQL.
func Fig13Cluster(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Figure 13",
		Title:  "DUALSIM (1 machine) vs distributed PSgL/TTJ (cluster) across datasets",
		Header: []string{"dataset", "query", "DUALSIM", "PSgL", "TTJ", "TTJ-SparkSQL"},
		Notes: []string{
			"paper: DUALSIM beats 51 machines by up to 162x (q1) and 24.6x (q4); everyone fails YH",
		},
	}
	for _, name := range dataset.Names() {
		g, err := e.graphByName(name)
		if err != nil {
			return nil, err
		}
		for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4()} {
			ds, err := e.DualSim(name, q)
			if err != nil {
				return nil, err
			}
			row := []string{name, q.Name(), fmtDur(ds.ExecTime)}
			if cnt, stats, err := e.PSgLCluster(g, q); err != nil {
				row = append(row, failCell(err))
			} else if cnt != ds.Count {
				return nil, fmt.Errorf("exp: fig13 %s/%s: PSgL %d != DUALSIM %d", name, q.Name(), cnt, ds.Count)
			} else {
				row = append(row, fmtDur(stats.Elapsed))
			}
			if cnt, stats, err := e.TTJCluster(g, q); err != nil {
				row = append(row, failCell(err))
			} else if cnt != ds.Count {
				return nil, fmt.Errorf("exp: fig13 %s/%s: TTJ %d != DUALSIM %d", name, q.Name(), cnt, ds.Count)
			} else {
				row = append(row, fmtDur(stats.Elapsed))
			}
			if _, stats, err := e.TTJSparkSQL(g, q); err != nil {
				row = append(row, failCell(err))
			} else {
				row = append(row, fmtDur(stats.Elapsed))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig14ClusterQueries reproduces Figure 14: all queries on WG, WT, LJ with
// the distributed baselines.
func Fig14ClusterQueries(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Figure 14",
		Title:  "Cluster: varying queries (q1-q5) on WG, WT, LJ",
		Header: []string{"dataset", "query", "DUALSIM", "PSgL", "TTJ"},
		Notes: []string{
			"paper: PSgL fails q2/q3 on LJ and q5 everywhere; TTJ cannot run q5",
		},
	}
	for _, name := range []string{"WG", "WT", "LJ"} {
		g, err := e.graphByName(name)
		if err != nil {
			return nil, err
		}
		for qi, q := range graph.PaperQueries() {
			ds, err := e.DualSim(name, q)
			if err != nil {
				return nil, err
			}
			row := []string{name, q.Name(), fmtDur(ds.ExecTime)}
			if cnt, stats, err := e.PSgLCluster(g, q); err != nil {
				row = append(row, failCell(err))
			} else if cnt != ds.Count {
				return nil, fmt.Errorf("exp: fig14 %s/%s: PSgL %d != DUALSIM %d", name, q.Name(), cnt, ds.Count)
			} else {
				row = append(row, fmtDur(stats.Elapsed))
			}
			if qi == 4 {
				row = append(row, "cannot run") // the paper's TTJ binary has no q5
			} else if cnt, stats, err := e.TTJCluster(g, q); err != nil {
				row = append(row, failCell(err))
			} else if cnt != ds.Count {
				return nil, fmt.Errorf("exp: fig14 %s/%s: TTJ %d != DUALSIM %d", name, q.Name(), cnt, ds.Count)
			} else {
				row = append(row, fmtDur(stats.Elapsed))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig15ClusterGraphSize reproduces Figure 15: cluster baselines vs DUALSIM
// over FR samples for q1 and q4.
func Fig15ClusterGraphSize(e *Env) (*Table, error) {
	return clusterGraphSize(e, "Figure 15",
		[]*graph.Query{graph.Triangle(), graph.Clique4()},
		"paper: PSgL fails q1 at 80%+ and q4 at 60%+")
}

// Fig18ClusterQ2Q3 reproduces Figure 18 (Appendix B.3): the same scaling
// for q2 and q3, where every distributed method eventually fails.
func Fig18ClusterQ2Q3(e *Env) (*Table, error) {
	return clusterGraphSize(e, "Figure 18",
		[]*graph.Query{graph.Square(), graph.ChordalSquare()},
		"paper: TTJ, TTJ-SparkSQL and PSgL fail at 80%, 60%, 40% of FR respectively")
}

func clusterGraphSize(e *Env, id string, queries []*graph.Query, note string) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  "Cluster: varying graph size (FR samples)",
		Header: []string{"sample", "query", "DUALSIM", "PSgL", "TTJ"},
		Notes:  []string{note},
	}
	fracs, graphs, err := e.frSamples()
	if err != nil {
		return nil, err
	}
	for i, frac := range fracs {
		g := graphs[i]
		db, _, err := e.buildDBOpts(g, fmt.Sprintf("fr%s-%02.0f", id[len(id)-2:], frac*100), 0)
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			ds, err := runOnDB(e, db, q)
			if err != nil {
				db.Close()
				return nil, err
			}
			row := []string{fmt.Sprintf("%.0f%%", frac*100), q.Name(), fmtDur(ds.ExecTime)}
			if cnt, stats, err := e.PSgLCluster(g, q); err != nil {
				row = append(row, failCell(err))
			} else if cnt != ds.Count {
				db.Close()
				return nil, fmt.Errorf("exp: %s: PSgL %d != DUALSIM %d", id, cnt, ds.Count)
			} else {
				row = append(row, fmtDur(stats.Elapsed))
			}
			if cnt, stats, err := e.TTJCluster(g, q); err != nil {
				row = append(row, failCell(err))
			} else if cnt != ds.Count {
				db.Close()
				return nil, fmt.Errorf("exp: %s: TTJ %d != DUALSIM %d", id, cnt, ds.Count)
			} else {
				row = append(row, fmtDur(stats.Elapsed))
			}
			t.AddRow(row...)
		}
		db.Close()
	}
	return t, nil
}

// Fig16Speedup reproduces Figure 16 (Appendix B.1): speed-up with 1..6
// threads on LJ for q1 and q4. The buffer is sized to hold the whole graph
// (the paper preloads it to isolate CPU parallelism).
func Fig16Speedup(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Figure 16",
		Title:  "Speed-up vs number of threads (hot run, LJ)",
		Header: []string{"query", "t=1", "t=2", "t=3", "t=4", "t=5", "t=6"},
		Notes:  []string{"paper: near-linear, 5.46x (q1) and 5.53x (q4) at 6 threads"},
	}
	if runtime.NumCPU() == 1 {
		t.Notes = append(t.Notes,
			"this host has a single CPU core: goroutine workers cannot run in parallel, so speed-up stays near 1.0 regardless of thread count")
	}
	db, _, err := e.DB("LJ")
	if err != nil {
		return nil, err
	}
	for _, q := range []*graph.Query{graph.Triangle(), graph.Clique4()} {
		var base float64
		row := []string{q.Name()}
		for threads := 1; threads <= 6; threads++ {
			// Two runs: the first warms the buffer, the second measures.
			opts := core.Options{Threads: threads, BufferFrames: 4 * db.NumPages()}
			if _, err := runOnDBOpts(e, db, q, opts); err != nil {
				return nil, err
			}
			res, err := runOnDBOpts(e, db, q, opts)
			if err != nil {
				return nil, err
			}
			secs := res.ExecTime.Seconds()
			if threads == 1 {
				base = secs
				row = append(row, "1.00x")
			} else {
				row = append(row, fmt.Sprintf("%.2fx", base/secs))
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig17VsOPT reproduces Figure 17 (Appendix B.2): DUALSIM vs OPT
// triangulation on LJ, FR, YH — the buffer allocation strategies differ.
func Fig17VsOPT(e *Env) (*Table, error) {
	t := &Table{
		ID:     "Figure 17",
		Title:  "Triangulation: DUALSIM allocation vs OPT's equal split",
		Header: []string{"dataset", "DUALSIM", "L1 windows", "OPT", "OPT L1 windows", "reads DUALSIM", "reads OPT"},
		Notes: []string{
			"paper: DUALSIM wins because most frames go to the internal area, reducing level-1 iterations",
		},
	}
	for _, name := range []string{"LJ", "FR", "YH"} {
		db, _, err := e.DB(name)
		if err != nil {
			return nil, err
		}
		// One thread, explicit frame budget, and simulated HDD latency so
		// the allocation strategies are actually distinguishable: with the
		// paper's strategy a 2-level plan gives all but 2 frames to the
		// internal area, while OPT halves the buffer.
		frames := max(db.NumPages()*15/100, 10)
		hdd := core.Options{
			Threads:        1,
			BufferFrames:   frames,
			PerPageLatency: 20 * time.Microsecond,
			SeekLatency:    200 * time.Microsecond,
		}
		ds, err := runOnDBOpts(e, db, graph.Triangle(), hdd)
		if err != nil {
			return nil, err
		}
		hddEq := hdd
		hddEq.EqualAllocation = true
		opt, err := runOnDBOpts(e, db, graph.Triangle(), hddEq)
		if err != nil {
			return nil, err
		}
		if ds.Count != opt.Count {
			return nil, fmt.Errorf("exp: fig17 %s: counts differ", name)
		}
		t.AddRow(name,
			fmtDur(ds.ExecTime), fmt.Sprintf("%d", ds.Level1Windows),
			fmtDur(opt.ExecTime), fmt.Sprintf("%d", opt.Level1Windows),
			fmtCount(ds.IO.PhysicalReads), fmtCount(opt.IO.PhysicalReads))
	}
	return t, nil
}

// Allocation helper shared with ablation benches.
var _ = buffer.Allocate
