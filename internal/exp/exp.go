// Package exp is the experiment harness: one function per table and figure
// of the paper's evaluation (Section 6 and Appendix B), each returning a
// printable Table with the same rows/series the paper reports. Absolute
// numbers differ (synthetic stand-in datasets at laptop scale; simulated
// cluster), but the shapes — who wins, where baselines fail, how curves
// bend — are the reproduction target recorded in EXPERIMENTS.md.
package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/dataset"
	"dualsim/internal/graph"
	"dualsim/internal/storage"
)

// Config parameterizes every experiment.
type Config struct {
	// Scale multiplies each stand-in dataset's size (default 0.2).
	Scale float64
	// TempDir holds databases and shuffle files (default: a fresh temp dir).
	TempDir string
	// Threads is DUALSIM's worker count (paper: 6; default 4).
	Threads int
	// ClusterWorkers simulates the paper's 50 slaves (default 50).
	ClusterWorkers int
	// PageSize for built databases (default 1024).
	PageSize int
	// BufferFraction is DUALSIM's default buffer budget (default 0.15).
	BufferFraction float64
	// ClusterMemoryPerWorker caps each simulated slave's memory for the
	// distributed baselines (default 1 MiB; the failures in Figures 13-15
	// and 18 come from here).
	ClusterMemoryPerWorker int64
	// SingleMemory caps the single-machine baselines (default 16 MiB,
	// echoing the paper's 24 GB box at reproduction scale).
	SingleMemory int64
	// SingleSpillBudget caps single-machine Hadoop-style spills (default
	// 64 MiB; LJ-q3-style spill failures come from here).
	SingleSpillBudget int64
	// Out receives progress logging (default: discarded).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.2
	}
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.ClusterWorkers == 0 {
		c.ClusterWorkers = 50
	}
	if c.PageSize == 0 {
		c.PageSize = 1024
	}
	if c.BufferFraction == 0 {
		c.BufferFraction = 0.15
	}
	if c.ClusterMemoryPerWorker == 0 {
		c.ClusterMemoryPerWorker = 1 << 20
	}
	if c.SingleMemory == 0 {
		c.SingleMemory = 16 << 20
	}
	if c.SingleSpillBudget == 0 {
		c.SingleSpillBudget = 64 << 20
	}
	if c.TempDir == "" {
		dir, err := os.MkdirTemp("", "dualsim-exp-")
		if err != nil {
			dir = os.TempDir()
		}
		c.TempDir = dir
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	printRow(t.Header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Env caches the graphs and databases shared across experiments.
type Env struct {
	Cfg    Config
	graphs map[string]*graph.Graph // degree-reordered
	dbs    map[string]*storage.DB
	builds map[string]*storage.BuildStats
}

// NewEnv prepares an environment; call Close when done.
func NewEnv(cfg Config) *Env {
	return &Env{
		Cfg:    cfg.withDefaults(),
		graphs: map[string]*graph.Graph{},
		dbs:    map[string]*storage.DB{},
		builds: map[string]*storage.BuildStats{},
	}
}

// Close releases the cached databases.
func (e *Env) Close() {
	for _, db := range e.dbs {
		db.Close()
	}
}

// Graph returns the degree-reordered stand-in for the dataset (cached).
func (e *Env) Graph(name string) (*graph.Graph, error) {
	if g, ok := e.graphs[name]; ok {
		return g, nil
	}
	spec, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	g := spec.Generate(e.Cfg.Scale)
	rg, _ := graph.ReorderByDegree(g)
	e.graphs[name] = rg
	return rg, nil
}

// DB builds (or returns the cached) disk database for the dataset.
func (e *Env) DB(name string) (*storage.DB, *storage.BuildStats, error) {
	if db, ok := e.dbs[name]; ok {
		return db, e.builds[name], nil
	}
	g, err := e.Graph(name)
	if err != nil {
		return nil, nil, err
	}
	db, stats, err := e.buildDB(g, name)
	if err != nil {
		return nil, nil, err
	}
	e.dbs[name] = db
	e.builds[name] = stats
	return db, stats, nil
}

func (e *Env) buildDB(g *graph.Graph, name string) (*storage.DB, *storage.BuildStats, error) {
	path := filepath.Join(e.Cfg.TempDir, fmt.Sprintf("%s.db", name))
	stats, err := storage.BuildFromGraph(path, g, storage.BuildOptions{
		PageSize: e.Cfg.PageSize,
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

// DualSim runs DUALSIM on the dataset's database with default options.
func (e *Env) DualSim(name string, q *graph.Query) (*core.Result, error) {
	return e.DualSimOpts(name, q, core.Options{})
}

// DualSimOpts runs DUALSIM with explicit engine options (zero fields are
// filled with the config defaults).
func (e *Env) DualSimOpts(name string, q *graph.Query, opts core.Options) (*core.Result, error) {
	db, _, err := e.DB(name)
	if err != nil {
		return nil, err
	}
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

// --- formatting helpers -----------------------------------------------------

// fmtDur renders a duration compactly.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// fmtCount renders large counts with thousands separators.
func fmtCount(n uint64) string {
	s := fmt.Sprintf("%d", n)
	var sb strings.Builder
	for i, c := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			sb.WriteByte(',')
		}
		sb.WriteRune(c)
	}
	return sb.String()
}

// fmtRatio renders a speedup factor.
func fmtRatio(num, den float64) string {
	if den <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", num/den)
}

// failCell renders a baseline failure like the paper's "fail" entries.
func failCell(err error) string {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "memory overrun"):
		return "fail (mem)"
	case strings.Contains(msg, "partition exceeds"):
		return "fail (partition)"
	case strings.Contains(msg, "spill budget"):
		return "fail (spill)"
	default:
		return "fail"
	}
}
