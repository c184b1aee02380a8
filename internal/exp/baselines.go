package exp

import (
	"fmt"
	"os"

	"dualsim/internal/baseline/psgl"
	"dualsim/internal/baseline/ttj"
	"dualsim/internal/graph"
)

// ttjDir makes a scratch dir for one TwinTwigJoin run.
func (e *Env) ttjDir() string {
	dir, err := os.MkdirTemp(e.Cfg.TempDir, "ttj-")
	if err != nil {
		return e.Cfg.TempDir
	}
	return dir
}

// TTJSingle runs TwinTwigJoin on one simulated machine (Hadoop mode: spills
// allowed up to the spill budget).
func (e *Env) TTJSingle(g *graph.Graph, q *graph.Query) (uint64, *ttj.Stats, error) {
	dir := e.ttjDir()
	defer os.RemoveAll(dir)
	return ttj.Run(g, q, ttj.Options{
		Workers:         1,
		TempDir:         dir,
		MemoryPerWorker: e.Cfg.SingleMemory,
		MaxSpillBytes:   e.Cfg.SingleSpillBudget,
	})
}

// TTJPG approximates the paper's TTJ-PG variant (PostgreSQL merge joins):
// a single machine with all intermediate results kept in memory, failing
// only when they exceed the machine's memory.
func (e *Env) TTJPG(g *graph.Graph, q *graph.Query) (uint64, *ttj.Stats, error) {
	dir := e.ttjDir()
	defer os.RemoveAll(dir)
	return ttj.Run(g, q, ttj.Options{
		Workers:         1,
		TempDir:         dir,
		MemoryPerWorker: e.Cfg.SingleMemory,
		FailOnOverflow:  true,
	})
}

// TTJCluster runs TwinTwigJoin across the simulated cluster (Hadoop mode).
func (e *Env) TTJCluster(g *graph.Graph, q *graph.Query) (uint64, *ttj.Stats, error) {
	dir := e.ttjDir()
	defer os.RemoveAll(dir)
	return ttj.Run(g, q, ttj.Options{
		Workers:         e.Cfg.ClusterWorkers,
		TempDir:         dir,
		MemoryPerWorker: e.Cfg.ClusterMemoryPerWorker,
		MaxSpillBytes:   e.Cfg.ClusterMemoryPerWorker * int64(e.Cfg.ClusterWorkers) * 8,
	})
}

// TTJSparkSQL runs the Spark SQL variant: oversized shuffle partitions fail
// the job instead of spilling.
func (e *Env) TTJSparkSQL(g *graph.Graph, q *graph.Query) (uint64, *ttj.Stats, error) {
	dir := e.ttjDir()
	defer os.RemoveAll(dir)
	return ttj.Run(g, q, ttj.Options{
		Workers:         e.Cfg.ClusterWorkers,
		TempDir:         dir,
		MemoryPerWorker: e.Cfg.ClusterMemoryPerWorker,
		FailOnOverflow:  true,
	})
}

// PSgLCluster runs PSgL across the simulated cluster.
func (e *Env) PSgLCluster(g *graph.Graph, q *graph.Query) (uint64, *psgl.Stats, error) {
	return psgl.Run(g, q, psgl.Options{
		Workers:         e.Cfg.ClusterWorkers,
		MemoryPerWorker: e.Cfg.ClusterMemoryPerWorker,
	})
}

// graphByName fetches the cached reordered graph or errors.
func (e *Env) graphByName(name string) (*graph.Graph, error) {
	g, err := e.Graph(name)
	if err != nil {
		return nil, fmt.Errorf("exp: dataset %s: %w", name, err)
	}
	return g, nil
}
