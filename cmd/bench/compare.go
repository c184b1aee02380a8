package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dualsim/internal/baseline/psgl"
	"dualsim/internal/baseline/ttj"
	"dualsim/internal/core"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// cmdCompare runs DUALSIM, TwinTwigJoin, and PSgL on the same edge list and
// prints a comparison to w — the paper's experiment on the user's own graph.
func cmdCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	edges := fs.String("edges", "", "edge-list text file (u v per line)")
	qspec := fs.String("q", "q1", "query: q1..q5 or edge list 0-1,1-2,...")
	threads := fs.Int("threads", 0, "DUALSIM worker threads")
	buffer := fs.Float64("buffer", 0.15, "DUALSIM buffer fraction")
	workers := fs.Int("workers", 1, "simulated machines for the baselines")
	memMB := fs.Int64("mem", 256, "per-machine memory for the baselines (MiB)")
	fs.Parse(args)
	if *edges == "" {
		return fmt.Errorf("compare: -edges is required")
	}
	q, err := graph.ParseQuerySpec(*qspec)
	if err != nil {
		return err
	}

	n, m, err := storage.ScanEdgeFile(*edges)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "graph: %d vertices, %d edge lines; query %s\n\n", n, m, q.Name())

	tmp, err := os.MkdirTemp("", "dualsim-compare-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// DUALSIM: build the database, then run disk-based.
	src := storage.NewFileSource(*edges, n)
	defer src.Close()
	dbPath := tmp + "/graph.db"
	buildStart := time.Now()
	if _, err := storage.Build(dbPath, src, storage.BuildOptions{TempDir: tmp}); err != nil {
		return err
	}
	buildTime := time.Since(buildStart)
	db, err := storage.Open(dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	eng, err := core.NewEngine(db, core.Options{Threads: *threads, BufferFraction: *buffer})
	if err != nil {
		return err
	}
	res, err := eng.Run(q)
	eng.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %12s  count=%d  (preprocess %v, %d page reads, %d-frame buffer)\n",
		"DUALSIM", res.ExecTime.Round(time.Microsecond), res.Count, buildTime.Round(time.Millisecond),
		res.Profile.PagesRead, res.BufferFrames)

	// Baselines run on the reordered in-memory graph.
	g, err := db.LoadGraph()
	if err != nil {
		return err
	}
	memory := *memMB << 20

	if cnt, stats, err := ttj.Run(g, q, ttj.Options{
		Workers: *workers, TempDir: tmp, MemoryPerWorker: memory,
	}); err != nil {
		fmt.Fprintf(w, "%-14s failed: %v\n", "TwinTwigJoin", err)
	} else {
		mark := ""
		if cnt != res.Count {
			mark = "  COUNT MISMATCH"
		}
		fmt.Fprintf(w, "%-14s %12s  count=%d  (%d intermediate results)%s\n",
			"TwinTwigJoin", stats.Elapsed.Round(time.Microsecond), cnt, stats.TotalIntermediate, mark)
	}

	if cnt, stats, err := psgl.Run(g, q, psgl.Options{
		Workers: *workers, MemoryPerWorker: memory,
	}); err != nil {
		fmt.Fprintf(w, "%-14s failed: %v\n", "PSgL", err)
	} else {
		mark := ""
		if cnt != res.Count {
			mark = "  COUNT MISMATCH"
		}
		fmt.Fprintf(w, "%-14s %12s  count=%d  (%d partial instances)%s\n",
			"PSgL", stats.Elapsed.Round(time.Microsecond), cnt, stats.PartialInstances, mark)
	}
	return nil
}
