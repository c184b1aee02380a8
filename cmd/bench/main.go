// Command bench regenerates the paper's evaluation tables and figures on
// the synthetic stand-in datasets.
//
// Usage:
//
//	bench -exp all                  # everything, in paper order
//	bench -exp fig11 -scale 0.3     # one experiment at a larger scale
//	bench -list                     # show available experiments
//	bench compare -edges edges.txt -q q4 [-workers N] [-mem MiB]
//	                                # DUALSIM vs TTJ vs PSgL on your own graph
package main

import (
	"flag"
	"fmt"
	"os"

	"dualsim/internal/exp"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := cmdCompare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("exp", "all", "experiment to run (see -list)")
	list := flag.Bool("list", false, "list available experiments")
	scale := flag.Float64("scale", 0.15, "dataset scale factor")
	threads := flag.Int("threads", 4, "DUALSIM worker threads")
	workers := flag.Int("workers", 50, "simulated cluster slaves")
	pageSize := flag.Int("pagesize", 1024, "database page size")
	verbose := flag.Bool("v", false, "progress logging to stderr")
	flag.Parse()

	if *list {
		for _, x := range exp.Experiments() {
			fmt.Printf("%-10s %s\n", x.Name, x.Desc)
		}
		return
	}
	cfg := exp.Config{
		Scale:          *scale,
		Threads:        *threads,
		ClusterWorkers: *workers,
		PageSize:       *pageSize,
	}
	if *verbose {
		cfg.Out = os.Stderr
	}
	if *name == "all" {
		if err := exp.RunAll(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	x, err := exp.ByName(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	env := exp.NewEnv(cfg)
	defer env.Close()
	t, err := x.Run(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", x.Name, err)
		os.Exit(1)
	}
	t.Fprint(os.Stdout)
}
