package dualsim

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (run via the exp harness at a reduced scale so `go test
// -bench=.` completes on a laptop), plus engine micro-benchmarks and the
// ablation benches called out in DESIGN.md. `cmd/bench` runs the same
// experiments at full reproduction scale and prints the paper-style tables.

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/dataset"
	"dualsim/internal/exp"
	"dualsim/internal/gen"
	"dualsim/internal/graph"
	"dualsim/internal/plan"
	"dualsim/internal/rbi"
	"dualsim/internal/storage"
)

// benchCfg keeps experiment benchmarks laptop-fast.
func benchCfg(b *testing.B) exp.Config {
	b.Helper()
	return exp.Config{
		Scale:          0.05,
		TempDir:        b.TempDir(),
		Threads:        2,
		ClusterWorkers: 4,
		PageSize:       512,
	}
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	x, err := exp.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := exp.NewEnv(cfg)
		t, err := x.Run(env)
		if err != nil {
			b.Fatal(err)
		}
		t.Fprint(io.Discard)
		env.Close()
	}
}

// --- one benchmark per paper table/figure -----------------------------------

func BenchmarkTable3Preprocessing(b *testing.B)        { benchExperiment(b, "table3") }
func BenchmarkTable4Intermediate(b *testing.B)         { benchExperiment(b, "table4") }
func BenchmarkTable5Estimated(b *testing.B)            { benchExperiment(b, "table5") }
func BenchmarkTable6Preparation(b *testing.B)          { benchExperiment(b, "table6") }
func BenchmarkFig9BufferSize(b *testing.B)             { benchExperiment(b, "fig9") }
func BenchmarkFig10SingleMachineDatasets(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11SingleMachineQueries(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12GraphSize(b *testing.B)             { benchExperiment(b, "fig12") }
func BenchmarkFig13Cluster(b *testing.B)               { benchExperiment(b, "fig13") }
func BenchmarkFig14ClusterQueries(b *testing.B)        { benchExperiment(b, "fig14") }
func BenchmarkFig15ClusterGraphSize(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkFig16Speedup(b *testing.B)               { benchExperiment(b, "fig16") }
func BenchmarkFig17VsOPT(b *testing.B)                 { benchExperiment(b, "fig17") }
func BenchmarkFig18ClusterQ2Q3(b *testing.B)           { benchExperiment(b, "fig18") }
func BenchmarkEvolvingGraphDegradation(b *testing.B)   { benchExperiment(b, "evolving") }

// --- engine micro-benchmarks -------------------------------------------------

// benchDB builds the LJ stand-in once per benchmark.
func benchDB(b *testing.B, scale float64) *storage.DB {
	b.Helper()
	spec, err := dataset.ByName("LJ")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Generate(scale)
	dir := b.TempDir()
	path := filepath.Join(dir, "lj.db")
	if _, err := storage.BuildFromGraph(path, g, storage.BuildOptions{PageSize: 1024, TempDir: dir}); err != nil {
		b.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func benchEngineQuery(b *testing.B, q *graph.Query, opts core.Options) {
	b.Helper()
	benchEnginePlan(b, q, plan.Options{}, opts)
}

// benchEnginePlan is benchEngineQuery with the plan prepared under popts.
func benchEnginePlan(b *testing.B, q *graph.Query, popts plan.Options, opts core.Options) {
	b.Helper()
	db := benchDB(b, 0.1)
	if opts.Threads == 0 {
		opts.Threads = 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(db, opts)
		if err != nil {
			b.Fatal(err)
		}
		p, err := plan.Prepare(q, popts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.RunPlanContext(context.Background(), p)
		eng.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Count == 0 && q.NumEdges() < 5 {
			b.Fatal("suspicious zero count")
		}
	}
}

func BenchmarkEngineTriangle(b *testing.B) { benchEngineQuery(b, graph.Triangle(), core.Options{}) }
func BenchmarkEngineClique4(b *testing.B)  { benchEngineQuery(b, graph.Clique4(), core.Options{}) }
func BenchmarkEngineHouse(b *testing.B)    { benchEngineQuery(b, graph.House(), core.Options{}) }

// benchResident times one query in the resident regime the benchmark's
// warm_enum workload serves: the default tier's graph shape
// (gen.ChungLu(10 000, 50 000, 2.8) on the tier's shape seed), a plain
// database, a buffer of 1.2× its pages and 2 threads, and one engine kept
// open across iterations, so every pin after the first run is a hit and the
// time is matching. The count is checked against the first run's.
func benchResident(b *testing.B, q *graph.Query) {
	b.Helper()
	dir := b.TempDir()
	path := filepath.Join(dir, "resident.db")
	if _, err := storage.BuildFromGraph(path, gen.ChungLu(10000, 50000, 2.8, 20160626), storage.BuildOptions{TempDir: dir}); err != nil {
		b.Fatal(err)
	}
	db, err := storage.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	eng, err := core.NewEngine(db, core.Options{Threads: 2, BufferFrames: (db.NumPages()*6 + 4) / 5})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	p, err := plan.Prepare(q, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	want, err := eng.RunPlanContext(context.Background(), p) // warms the buffer
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.RunPlanContext(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count != want.Count {
			b.Fatalf("count %d, first run %d", res.Count, want.Count)
		}
	}
}

// scaleTier is the scale tier's database: gen.RMAT(20, 8 000 000, 0.57,
// 0.19, 0.19, 1) — 2^20 vertices, about 7.7 M edges — built compressed once
// per process into a temporary directory that TestMain removes.
var scaleTier struct {
	once      sync.Once
	dir, path string
	err       error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if scaleTier.dir != "" {
		os.RemoveAll(scaleTier.dir)
	}
	os.Exit(code)
}

// BenchmarkScaleQ1 and BenchmarkScaleQ4 run q1 and q4 on the scale tier
// with one engine (2 threads), q1 at a 5 % buffer and q4 at 10 %, which
// keeps one q4 run under a minute (36 s on a 2-core AMD EPYC; 48 s at 5 %):
// a graph far beyond the cache, where what grows with |V| shows. Each reports
// the pages and device requests per run, the heap that opening the database
// and its engine keep live, the file's pages, the windows per level
// (windows-lN), and the pages read over Equation 1's prediction and over
// Silvestri's bound (equation1-ratio, silvestri-ratio). `make scale` runs them;
// they are in neither tier-1 nor `make check`.
func BenchmarkScaleQ1(b *testing.B) { benchScale(b, graph.Triangle(), 0.05) }
func BenchmarkScaleQ4(b *testing.B) { benchScale(b, graph.Clique4(), 0.10) }

// benchScale runs q on the scale tier at the given buffer fraction.
func benchScale(b *testing.B, q *graph.Query, fraction float64) {
	scaleTier.once.Do(func() {
		if scaleTier.dir, scaleTier.err = os.MkdirTemp("", "dualsim-scale-"); scaleTier.err == nil {
			scaleTier.path = filepath.Join(scaleTier.dir, "rmat20.db")
			_, scaleTier.err = storage.BuildFromGraph(scaleTier.path, gen.RMAT(20, 8_000_000, 0.57, 0.19, 0.19, 1),
				storage.BuildOptions{Compress: true, TempDir: scaleTier.dir})
		}
	})
	if scaleTier.err != nil {
		b.Fatal(scaleTier.err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := storage.Open(scaleTier.path)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	eng, err := core.NewEngine(db, core.Options{Threads: 2, BufferFraction: fraction})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	runtime.GC()
	runtime.ReadMemStats(&after)
	p, err := plan.Prepare(q, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var pages, requests uint64
	var windows []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.RunPlanContext(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		// A coalesced run of n pages is one device request.
		pages += res.Profile.PagesRead
		requests += res.Profile.PagesRead - res.Profile.CoalescedPages + res.Profile.CoalescedRuns
		windows = res.WindowsPerLevel
	}
	perOp := float64(pages) / float64(b.N)
	b.ReportMetric(perOp, "pages/op")
	b.ReportMetric(float64(requests)/float64(b.N), "requests/op")
	b.ReportMetric(float64(after.HeapAlloc)-float64(before.HeapAlloc), "open-heap-B")
	b.ReportMetric(float64(db.NumPages()), "file-pages")
	for l, w := range windows {
		b.ReportMetric(float64(w), fmt.Sprintf("windows-l%d", l+1))
	}
	// Pages read against the paper's Equation 1 and, q1 and q4 being
	// cliques, Silvestri's I/O bound for k-clique enumeration,
	// E^(k/2) / (B * M^(k/2-1)), floored at one scan: the benchmark's model
	// distances (benchmark/run.go, modelDistances), in edge words.
	pageWords, edgeWords, k := float64(db.PageSize())/4, 2*float64(db.NumEdges()), float64(q.NumVertices())
	bufferWords := float64(eng.BufferFrames()) * pageWords
	predicted := core.CostModel{Edges: edgeWords, BufferWords: bufferWords, PageWords: pageWords, Levels: q.NumVertices() - 1}.PredictedReads()
	bound := math.Max(edgeWords/pageWords, math.Pow(edgeWords, k/2)/(pageWords*math.Pow(bufferWords, k/2-1)))
	b.ReportMetric(perOp/predicted, "equation1-ratio")
	b.ReportMetric(perOp/bound, "silvestri-ratio")
}

func BenchmarkResidentQ1(b *testing.B) { benchResident(b, graph.Triangle()) }
func BenchmarkResidentQ3(b *testing.B) { benchResident(b, graph.ChordalSquare()) }
func BenchmarkResidentQ4(b *testing.B) { benchResident(b, graph.Clique4()) }

// BenchmarkEnumerate measures a full run through the public API. The
// "baseline" variant has every observability feature off — the guardrail for
// the instrumented engine's disabled-path cost — while "traced" pays for a
// JSONL trace of every window event.
func BenchmarkEnumerate(b *testing.B) {
	run := func(b *testing.B, opts Options) {
		b.Helper()
		pub := &DB{db: benchDB(b, 0.1)}
		opts.Threads = 2
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng, err := pub.NewEngine(opts)
			if err != nil {
				b.Fatal(err)
			}
			res, err := eng.Run(Triangle())
			eng.Close()
			if err != nil {
				b.Fatal(err)
			}
			if res.Count == 0 {
				b.Fatal("suspicious zero count")
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, Options{}) })
	b.Run("traced", func(b *testing.B) { run(b, Options{TraceWriter: io.Discard}) })
}

// --- intersection kernel micro-benchmarks ------------------------------------
//
// Each benchmark fixes a list-length shape and compares the three pairwise kernels; the adaptive
// entry shows which kernel the dispatch picks for that shape.

// benchIntersectLists builds two sorted duplicate-free lists. The large
// list holds the even numbers 0..2(nl-1); the small list's ns elements are
// spread evenly across that whole range (so a linear merge must walk all of
// the large list), with every third element bumped to an odd miss.
func benchIntersectLists(ns, nl int) (a, b []graph.VertexID) {
	a = make([]graph.VertexID, ns)
	stride := (2 * nl) / ns
	if stride < 2 {
		stride = 2
	}
	for i := range a {
		v := i * stride
		if i%3 == 0 {
			v++ // odd: guaranteed miss
		}
		a[i] = graph.VertexID(v)
	}
	b = make([]graph.VertexID, nl)
	for i := range b {
		b[i] = graph.VertexID(2 * i)
	}
	return a, b
}

func benchIntersectShape(b *testing.B, ns, nl int) {
	b.Helper()
	small, large := benchIntersectLists(ns, nl)
	dst := make([]graph.VertexID, 0, ns)
	kernels := []struct {
		name string
		fn   func(a, bb, dst []graph.VertexID) []graph.VertexID
	}{
		{"linear", graph.IntersectSortedLinear},
		{"gallop", graph.IntersectSortedGallop},
		{"adaptive", graph.IntersectSorted},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = k.fn(small, large, dst)
			}
			if len(dst) == 0 {
				b.Fatal("empty intersection; fixture broken")
			}
		})
	}
}

// BenchmarkIntersectBalanced: comparable list lengths — the linear merge's
// home turf; the dispatch must pick it.
func BenchmarkIntersectBalanced(b *testing.B) { benchIntersectShape(b, 4096, 8192) }

// BenchmarkIntersectSkewed: 64 vs 65536 (1024x) — a low-degree vertex
// against a hub; galloping territory.
func BenchmarkIntersectSkewed(b *testing.B) { benchIntersectShape(b, 64, 65536) }

// BenchmarkIntersectExtreme: 4 vs 1M — the paper-scale hub case from the
// skew test matrix (1-vs-10^6).
func BenchmarkIntersectExtreme(b *testing.B) { benchIntersectShape(b, 4, 1<<20) }

// BenchmarkIntersectKWay: a 4-list ivory intersection, smallest-first
// adaptive (arena) vs folding pairwise linear merges in given order.
func BenchmarkIntersectKWay(b *testing.B) {
	mk := func(step, n int) []graph.VertexID {
		out := make([]graph.VertexID, n)
		for i := range out {
			out[i] = graph.VertexID(step * i)
		}
		return out
	}
	lists := [][]graph.VertexID{mk(2, 200000), mk(3, 120000), mk(30, 400), mk(5, 60000)}
	b.Run("naive-ordered-linear", func(b *testing.B) {
		b.ReportAllocs()
		tmp := make([]graph.VertexID, 0, 200000)
		tmp2 := make([]graph.VertexID, 0, 200000)
		for i := 0; i < b.N; i++ {
			cur := graph.IntersectSortedLinear(lists[0], lists[1], tmp)
			cur = graph.IntersectSortedLinear(cur, lists[2], tmp2)
			cur = graph.IntersectSortedLinear(cur, lists[3], tmp)
			if len(cur) == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("smallest-first-adaptive", func(b *testing.B) {
		b.ReportAllocs()
		ar := graph.NewArena()
		work := make([][]graph.VertexID, len(lists))
		for i := 0; i < b.N; i++ {
			copy(work, lists)
			if len(ar.IntersectK(0, work)) == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// --- ablation benches (design choices from DESIGN.md §5) ----------------------

// BenchmarkAblationBufferAllocation compares the paper's buffer allocation
// with OPT's equal split (Figure 17's explanation).
func BenchmarkAblationBufferAllocation(b *testing.B) {
	b.Run("paper", func(b *testing.B) {
		benchEngineQuery(b, graph.Triangle(), core.Options{})
	})
	b.Run("equal", func(b *testing.B) {
		benchEngineQuery(b, graph.Triangle(), core.Options{EqualAllocation: true})
	})
}

// BenchmarkAblationRBI compares red-vertex selection strategies on the
// square: the paper's MCVC (3 connected red vertices), plain MVC (2
// disconnected red vertices, forcing a Cartesian product), and no RBI at
// all (all 4 vertices matched by traversal — a full extra level).
func BenchmarkAblationRBI(b *testing.B) {
	b.Run("mcvc", func(b *testing.B) {
		benchEnginePlan(b, graph.Square(), plan.Options{CoverMode: rbi.MCVC}, core.Options{})
	})
	b.Run("mvc", func(b *testing.B) {
		benchEnginePlan(b, graph.Square(), plan.Options{CoverMode: rbi.MVC}, core.Options{})
	})
	b.Run("allred", func(b *testing.B) {
		benchEnginePlan(b, graph.Square(), plan.Options{CoverMode: rbi.AllRed}, core.Options{})
	})
}

// BenchmarkAblationVGroup quantifies the v-group sequencing win: the house
// query has 3 full-order sequences in 2 v-groups, so per-sequence matching
// would re-traverse; the diamond (1 group) is the control.
func BenchmarkAblationVGroup(b *testing.B) {
	b.Run("house-2groups", func(b *testing.B) {
		benchEngineQuery(b, graph.House(), core.Options{})
	})
	b.Run("diamond-1group", func(b *testing.B) {
		benchEngineQuery(b, graph.ChordalSquare(), core.Options{})
	})
}

// --- substrate micro-benchmarks ------------------------------------------------

func BenchmarkBuildDatabase(b *testing.B) {
	spec, err := dataset.ByName("LJ")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Generate(0.1)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, "bench.db")
		if _, err := storage.BuildFromGraph(path, g, storage.BuildOptions{PageSize: 1024, TempDir: dir}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBruteForceReference(b *testing.B) {
	spec, err := dataset.ByName("LJ")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Generate(0.1)
	rg, _ := graph.ReorderByDegree(g)
	po := graph.SymmetryBreak(graph.Triangle())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BruteForceCount(rg, graph.Triangle(), po)
	}
}

// BenchmarkAblationOverlap quantifies the CPU/I-O overlap: with simulated
// device latency, four async I/O workers loading pages while
// enumeration proceeds should beat a single serialized reader.
func BenchmarkAblationOverlap(b *testing.B) {
	lat := core.Options{PerPageLatency: 30 * time.Microsecond, SeekLatency: 150 * time.Microsecond}
	b.Run("overlapped-4iow", func(b *testing.B) {
		o := lat
		o.IOWorkers = 4
		benchEngineQuery(b, graph.Triangle(), o)
	})
	b.Run("serialized-1iow", func(b *testing.B) {
		o := lat
		o.IOWorkers = 1
		benchEngineQuery(b, graph.Triangle(), o)
	})
}

func BenchmarkFailureBoundary(b *testing.B) { benchExperiment(b, "failures") }

// BenchmarkAblationCompression compares plain 4-byte adjacency storage with
// delta+varint compression: fewer pages means fewer reads per query.
func BenchmarkAblationCompression(b *testing.B) {
	run := func(b *testing.B, compress bool) {
		spec, err := dataset.ByName("LJ")
		if err != nil {
			b.Fatal(err)
		}
		g := spec.Generate(0.1)
		dir := b.TempDir()
		path := filepath.Join(dir, "lj.db")
		if _, err := storage.BuildFromGraph(path, g, storage.BuildOptions{PageSize: 1024, TempDir: dir, Compress: compress}); err != nil {
			b.Fatal(err)
		}
		db, err := storage.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		b.ReportMetric(float64(db.NumPages()), "pages")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng, err := core.NewEngine(db, core.Options{Threads: 2, BufferFrames: 16})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(graph.Clique4()); err != nil {
				b.Fatal(err)
			}
			eng.Close()
		}
	}
	b.Run("plain", func(b *testing.B) { run(b, false) })
	b.Run("compressed", func(b *testing.B) { run(b, true) })
}

func BenchmarkCostModelValidation(b *testing.B) { benchExperiment(b, "costmodel") }
