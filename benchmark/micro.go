package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"dualsim/internal/buffer"
	"dualsim/internal/core"
	"dualsim/internal/delta"
	"dualsim/internal/graph"
	"dualsim/internal/plan"
	"dualsim/internal/storage"
)

// micro times calls into each layer's exported functions on data drawn from
// the run's fixture. Every timing is one span in rec; results land in out
// under their per-layer metric names.
type micro struct {
	f   *fixture
	w   *workload
	dir string
	rec *spanRecorder
	rng *rand.Rand
	out map[string]float64

	g             *graph.Graph
	plain, packed *storage.DB
}

// timeN runs fn n times inside one span and returns nanoseconds per call.
func (m *micro) timeN(name string, n int, fn func()) float64 {
	d := m.rec.time(microRequest, name, func() {
		for i := 0; i < n; i++ {
			fn()
		}
	})
	return float64(d.Nanoseconds()) / float64(n)
}

// medianOf runs fn reps times, each inside its own span, and returns the
// median duration in nanoseconds.
func (m *micro) medianOf(name string, reps int, fn func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		ds[i] = float64(m.rec.time(microRequest, name, fn).Nanoseconds())
	}
	return median(ds)
}

// microTimings runs every layer's micro-timings. Only core.direct_run_ms
// depends on the workload (it reuses the workload's engine configuration);
// the rest depend on the fixture alone.
func microTimings(f *fixture, w *workload, dir string, rec *spanRecorder) (map[string]float64, error) {
	g, err := graph.NewGraph(f.n, f.edges)
	if err != nil {
		return nil, err
	}
	m := &micro{f: f, w: w, dir: dir, rec: rec, g: g, out: map[string]float64{},
		rng: rand.New(rand.NewSource(f.seed ^ 0x6d6963726f))}
	for _, step := range []func() error{m.storage, m.buffer, m.kernels, m.delta, m.plan, m.core} {
		if err := step(); err != nil {
			m.close()
			return nil, err
		}
	}
	return m.out, m.close()
}

func (m *micro) close() error {
	var first error
	for _, db := range []*storage.DB{m.plain, m.packed} {
		if db == nil {
			continue
		}
		path := db.Path()
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
		if err := os.Remove(path); err != nil && first == nil {
			first = err
		}
	}
	m.plain, m.packed = nil, nil
	return first
}

// dbFor returns the database flavour the workload serves.
func (m *micro) dbFor() *storage.DB {
	if m.w.Compress {
		return m.packed
	}
	return m.plain
}

func (m *micro) storage() error {
	edges := float64(m.g.NumEdges())
	build := func(name string, compress bool) (*storage.DB, error) {
		path := filepath.Join(m.dir, "micro-"+name+".db")
		var err error
		ns := m.medianOf("storage.build."+name, 3, func() {
			if err == nil {
				_, err = storage.BuildFromGraph(path, m.g, storage.BuildOptions{Compress: compress, TempDir: m.dir})
			}
		})
		if err != nil {
			return nil, err
		}
		m.out["storage.build_ns_per_edge."+name] = ns / edges
		return storage.Open(path)
	}
	var err error
	if m.plain, err = build("plain", false); err != nil {
		return err
	}
	if m.packed, err = build("compressed", true); err != nil {
		return err
	}

	// Reads: every page of the plain file, ascending and then shuffled.
	pages := m.plain.NumPages()
	order := make([]storage.PageID, pages)
	for i := range order {
		order[i] = storage.PageID(i)
	}
	buf := make([]byte, m.plain.PageSize())
	readAll := func() {
		for _, pid := range order {
			if rerr := m.plain.ReadPageInto(pid, buf); rerr != nil && err == nil {
				err = rerr
			}
		}
	}
	const readRounds = 20
	m.out["storage.read_ns_per_page.seq"] = m.timeN("storage.read.seq", readRounds, readAll) / float64(pages)
	m.rng.Shuffle(pages, func(i, j int) { order[i], order[j] = order[j], order[i] })
	m.out["storage.read_ns_per_page.rand"] = m.timeN("storage.read.rand", readRounds, readAll) / float64(pages)
	if err != nil {
		return err
	}

	// Parses: page images held in memory, so only the parse is timed.
	images := func(db *storage.DB) ([][]byte, error) {
		imgs := make([][]byte, db.NumPages())
		for i := range imgs {
			imgs[i] = make([]byte, db.PageSize())
			if err := db.ReadPageInto(storage.PageID(i), imgs[i]); err != nil {
				return nil, err
			}
		}
		return imgs, nil
	}
	parseAll := func(name string, imgs [][]byte, parse func([]byte) (*storage.Page, error)) (nsPerPage float64, records int) {
		const rounds = 10
		ns := m.timeN(name, rounds, func() {
			records = 0
			for _, img := range imgs {
				p, perr := parse(img)
				if perr != nil {
					if err == nil {
						err = perr
					}
					continue
				}
				records += len(p.Records)
			}
		})
		return ns / float64(len(imgs)), records
	}
	plainImgs, err := images(m.plain)
	if err != nil {
		return err
	}
	packedImgs, err := images(m.packed)
	if err != nil {
		return err
	}
	nsPlain, records := parseAll("storage.parse.plain", plainImgs, storage.ParsePage)
	m.out["storage.parse_ns_per_page.plain"] = nsPlain
	m.out["storage.parse_ns_per_record"] = ratio(nsPlain*float64(len(plainImgs)), float64(records))
	m.out["storage.parse_ns_per_page.compressed"], _ = parseAll("storage.parse.compressed", packedImgs, storage.ParsePage)
	m.out["storage.parse_lazy_ns_per_page.compressed"], _ = parseAll("storage.parse_lazy.compressed", packedImgs, storage.ParsePageLazy)
	if err != nil {
		return err
	}

	// Compact folds a 1000-op overlay into a fresh file.
	n, live, err := liveEdges(m.plain.Path())
	if err != nil {
		return err
	}
	stream := newEdgeStream(m.f.seed, n, live)
	store := delta.NewStore(n, m.plain.Epoch())
	for b := 0; b < 1000/writerBatch; b++ {
		if _, err := store.Apply(stream.next(writerBatch)); err != nil {
			return err
		}
	}
	snap := store.Snapshot()
	folded := filepath.Join(m.dir, "micro-folded.db")
	ns := m.medianOf("storage.compact", 3, func() {
		if err == nil {
			_, err = storage.Compact(folded, m.plain, snap.Apply, snap.Epoch(), storage.BuildOptions{TempDir: m.dir})
		}
	})
	os.Remove(folded)
	if err != nil {
		return err
	}
	m.out["storage.compact_ms"] = ns / 1e6

	epoch := m.plain.Epoch()
	m.out["storage.stamp_epoch_us"] = m.medianOf("storage.stamp_epoch", 50, func() {
		epoch++
		if serr := storage.StampEpoch(m.plain.Path(), epoch); serr != nil && err == nil {
			err = serr
		}
	}) / 1e3
	if err != nil {
		return err
	}

	st, err := m.dbFor().Stats()
	if err != nil {
		return err
	}
	m.out["storage.adj_bytes_per_edge"] = ratio(float64(st.AdjBytes), float64(m.dbFor().NumEdges()))
	m.out["storage.fill_factor"] = st.FillFactor
	return nil
}

func (m *micro) buffer() error {
	pages := m.plain.NumPages()
	const pins = 20000
	pids := make([]storage.PageID, pins)
	for i := range pids {
		pids[i] = storage.PageID(m.rng.Intn(pages))
	}
	// Random pins against pools holding all, half and one of the pages:
	// about 100 %, 50 % and 0 % of them are hits.
	for _, c := range []struct {
		name   string
		frames int
	}{{"hit100", pages}, {"hit50", max(pages/2, 1)}, {"hit0", 1}} {
		pool, err := buffer.NewPool(m.plain, buffer.Options{Frames: c.frames})
		if err != nil {
			return err
		}
		pinAll := func() {
			for _, pid := range pids {
				if _, perr := pool.Pin(pid); perr != nil {
					if err == nil {
						err = perr
					}
					continue
				}
				pool.Unpin(pid)
			}
		}
		pinAll() // fill the pool
		m.out["buffer.pin_ns."+c.name] = m.timeN("buffer.pin."+c.name, 1, pinAll) / pins
		pool.Close()
		if err != nil {
			return err
		}
	}

	// Coalesced runs over the whole file into a cold pool.
	var err error
	ns := m.medianOf("buffer.run_read", 5, func() {
		pool, perr := buffer.NewPool(m.plain, buffer.Options{Frames: pages})
		if perr != nil {
			err = perr
			return
		}
		defer pool.Close()
		var wg sync.WaitGroup
		var mu sync.Mutex
		for first := 0; first < pages; first += buffer.DefaultMaxRun {
			n := min(buffer.DefaultMaxRun, pages-first)
			wg.Add(n)
			pool.AsyncReadRunContext(context.Background(), storage.PageID(first), n, &wg,
				func(pid storage.PageID, _ *storage.Page, rerr error) {
					if rerr != nil {
						mu.Lock()
						err = rerr
						mu.Unlock()
						return
					}
					pool.Unpin(pid)
				})
		}
		wg.Wait()
	})
	if err != nil {
		return err
	}
	m.out["buffer.run_read_pages_per_s"] = float64(pages) / (ns / 1e9)
	return nil
}

// listPair is two adjacency lists that share an edge of the fixture, so
// their lengths are skewed the way the fixture's degrees are.
type listPair struct{ a, b []graph.VertexID }

func (m *micro) kernels() error {
	const wantPairs = 256
	var balanced, skewed []listPair
	for _, i := range m.rng.Perm(len(m.f.edges)) {
		if len(balanced) >= wantPairs && len(skewed) >= wantPairs {
			break
		}
		e := m.f.edges[i]
		a, b := m.g.Adj(e[0]), m.g.Adj(e[1])
		if len(a) > len(b) {
			a, b = b, a
		}
		// 16 is the kernels' own linear-versus-gallop threshold.
		if len(b) >= 16*len(a) {
			if len(skewed) < wantPairs {
				skewed = append(skewed, listPair{a, b})
			}
		} else if len(balanced) < wantPairs {
			balanced = append(balanced, listPair{a, b})
		}
	}
	elems := func(ps []listPair) (n float64) {
		for _, p := range ps {
			n += float64(len(p.a) + len(p.b))
		}
		return n
	}
	const rounds = 50
	var dst []graph.VertexID
	for _, c := range []struct {
		name  string
		pairs []listPair
	}{{"balanced", balanced}, {"skewed", skewed}} {
		if len(c.pairs) == 0 {
			continue
		}
		ns := m.timeN("graph.intersect."+c.name, rounds, func() {
			for _, p := range c.pairs {
				dst = graph.IntersectSorted(p.a, p.b, dst)
			}
		})
		m.out["graph.intersect_ns_per_elem."+c.name] = ns / elems(c.pairs)
	}

	// The compressed kernel and the decoder work on the longer list of each
	// pair, encoded the way a compressed page stores it.
	all := append(append([]listPair(nil), balanced...), skewed...)
	comp := make([]graph.CompressedAdj, len(all))
	var decoded float64
	for i, p := range all {
		payload, skips := graph.AppendCompressed(nil, p.b)
		c, err := graph.ParseCompressed(payload, len(p.b), skips)
		if err != nil {
			return fmt.Errorf("encoding a fixture list: %w", err)
		}
		comp[i] = c
		decoded += float64(len(p.b))
	}
	ns := m.timeN("graph.intersect_compressed", rounds, func() {
		for i, p := range all {
			dst = graph.IntersectCompressed(p.a, comp[i], dst, nil)
		}
	})
	m.out["graph.intersect_compressed_ns_per_elem"] = ratio(ns, elems(all))
	ns = m.timeN("graph.decode", rounds, func() {
		for _, c := range comp {
			dst = c.AppendTo(dst[:0])
		}
	})
	m.out["graph.decode_ns_per_elem"] = ratio(ns, decoded)

	// Three-way: both ends of an edge and one more neighbour of the first.
	arena := graph.NewArena()
	type triple [3][]graph.VertexID
	var triples []triple
	var tripleElems float64
	for _, p := range all {
		if len(p.a) == 0 {
			continue
		}
		c := m.g.Adj(p.a[m.rng.Intn(len(p.a))])
		triples = append(triples, triple{p.a, p.b, c})
		tripleElems += float64(len(p.a) + len(p.b) + len(c))
	}
	lists := make([][]graph.VertexID, 3)
	ns = m.timeN("graph.intersect_kway", rounds, func() {
		for _, t := range triples {
			copy(lists, t[:]) // IntersectK reorders its input
			arena.IntersectK(0, lists)
		}
	})
	m.out["graph.intersect_kway_ns_per_elem"] = ratio(ns, tripleElems)
	return nil
}

func (m *micro) delta() error {
	n := m.f.n
	// A ring of inserts touches every vertex once: the largest overlay the
	// fixture's vertex count allows, capped at the 10 000 the name promises.
	target := min(10000, n)
	big := delta.NewStore(n, 0)
	var ops []delta.Op
	for v := 0; v < target; v++ {
		ops = append(ops, delta.Op{Insert: true, U: graph.VertexID(v), V: graph.VertexID((v + 1) % n)})
	}
	if _, err := big.Apply(ops); err != nil {
		return err
	}
	stream := newEdgeStream(m.f.seed, n, m.f.edges)
	var err error
	apply := func(st *delta.Store) {
		if _, aerr := st.Apply(stream.next(writerBatch)); aerr != nil && err == nil {
			err = aerr
		}
	}
	m.out["delta.apply_us_per_batch.empty"] = m.medianOf("delta.apply.empty", 200, func() {
		apply(delta.NewStore(n, 0))
	}) / 1e3
	m.out["delta.apply_us_per_batch.10k"] = m.medianOf("delta.apply.10k", 200, func() { apply(big) }) / 1e3
	if err != nil {
		return err
	}
	snap := big.Snapshot()
	var merged int
	ns := m.timeN("delta.snapshot_apply", 20, func() {
		for v := 0; v < target; v++ {
			merged += len(snap.Apply(graph.VertexID(v), m.g.Adj(graph.VertexID(v))))
		}
	})
	if merged == 0 {
		return fmt.Errorf("delta: overlay merge produced nothing")
	}
	m.out["delta.snapshot_apply_ns_per_vertex"] = ns / float64(target)
	return nil
}

func (m *micro) plan() error {
	var err error
	for _, class := range countClasses {
		q := classQuery(class)
		m.out["plan.prepare_us."+class] = m.medianOf("plan.prepare."+class, 100, func() {
			if _, perr := plan.Prepare(q, plan.Options{}); perr != nil && err == nil {
				err = perr
			}
		}) / 1e3
	}
	cache := plan.NewCache(16)
	build := func() (*plan.Plan, error) { return plan.Prepare(classQuery(classQ4), plan.Options{}) }
	if _, _, err := cache.GetOrBuild("k", build); err != nil {
		return err
	}
	m.out["plan.cache_hit_ns"] = m.timeN("plan.cache_hit", 100000, func() {
		if _, built, cerr := cache.GetOrBuild("k", build); (cerr != nil || built) && err == nil {
			err = fmt.Errorf("plan cache: warm key rebuilt (err %v)", cerr)
		}
	})

	// Canonical forms of relabelled spellings, the way they reach the server.
	var specs []*graph.Query
	for i := 0; i < 30; i++ {
		q, perr := graph.ParseQuerySpec(relabelledSpec(classQuery(countClasses[i%len(countClasses)]), m.rng))
		if perr != nil {
			return perr
		}
		specs = append(specs, q)
	}
	m.out["graph.canonical_us"] = m.timeN("graph.canonical", 10, func() {
		for _, q := range specs {
			if _, _, _, cerr := graph.CanonicalQuery(q, "c"); cerr != nil && err == nil {
				err = cerr
			}
		}
	}) / float64(len(specs)) / 1e3
	return err
}

func (m *micro) core() error {
	db := m.dbFor()
	frames := int(math.Ceil(m.w.BufferFraction*float64(db.NumPages()))) / m.w.Engines
	eng, err := core.NewEngine(db, core.Options{
		Threads: m.w.Threads, BufferFrames: frames, PrefetchFrames: m.w.PrefetchFrames,
		PerPageLatency: m.w.PerPageLatency, SeekLatency: m.w.SeekLatency,
	})
	if err != nil {
		return err
	}
	for _, class := range []string{classQ1, classQ4} {
		want, ok := m.f.ref[class]
		if !ok {
			continue // the large tier has no 4-clique reference
		}
		p, perr := plan.Prepare(classQuery(class), plan.Options{})
		if perr != nil {
			eng.Close()
			return perr
		}
		run := func() {
			res, rerr := eng.RunPlanContext(context.Background(), p)
			if rerr == nil && res.Count != want {
				rerr = fmt.Errorf("direct %s run counted %d, want %d", class, res.Count, want)
			}
			if rerr != nil && err == nil {
				err = rerr
			}
		}
		run() // fill the pool as the workload's warm-up does
		m.out["core.direct_run_ms."+class] = m.medianOf("core.direct_run."+class, 3, run) / 1e6
	}
	eng.Close()
	if err != nil {
		return err
	}

	// The shared scan's loader, on the compressed file with the buffer
	// concurrent_mix gives its cohort engine.
	cw := workloadByName("concurrent_mix")
	seng, err := core.NewEngine(m.packed, core.Options{
		Threads:      cw.Threads,
		BufferFrames: int(math.Ceil(cw.BufferFraction * float64(m.packed.NumPages()))),
	})
	if err != nil {
		return err
	}
	defer seng.Close()
	sweep, err := seng.NewSweep(core.SweepOptions{MaxRiders: cw.CohortRiders})
	if err != nil {
		return err
	}
	defer sweep.Close()
	const rotations = 5
	windows := sweep.Windows()
	ns := m.timeN("core.sweep_load", rotations, func() {
		for i := 0; i < windows; i++ {
			win, lerr := sweep.Load(context.Background(), i, (i+1)%windows)
			if lerr != nil {
				if err == nil {
					err = lerr
				}
				return
			}
			sweep.Release(win)
		}
	})
	m.out["core.sweep_load_us_per_window"] = ns / float64(windows) / 1e3
	return err
}
