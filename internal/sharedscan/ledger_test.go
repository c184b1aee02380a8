package sharedscan

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dualsim/internal/core"
	"dualsim/internal/faultdb"
	"dualsim/internal/graph"
	"dualsim/internal/obs"
	"dualsim/internal/storage"
)

// mirrored names the registry counters that mirror scope fields, in the
// order fields lists the fields.
var mirrored = []string{"dualsim_pages_read_total", "dualsim_logical_reads_total", "dualsim_buffer_hits_total",
	"dualsim_buffer_pin_wait_nanos_total", "dualsim_coalesced_runs_total", "dualsim_coalesced_pages_total",
	"dualsim_io_wait_nanos_total", "dualsim_windows_total", "dualsim_windows_level1_total",
	"dualsim_intersect_linear_total", "dualsim_intersect_gallop_total", "dualsim_intersect_kway_total",
	"dualsim_intersect_probe_total", "dualsim_steal_splits_total", "dualsim_checkpoints_taken_total", "dualsim_embeddings_internal_total",
	"dualsim_embeddings_external_total", "dualsim_shared_pages_total"}

func fields(p obs.CostProfile) []uint64 {
	return []uint64{p.PagesRead, p.LogicalReads, p.BufferHits, uint64(p.PinWaitNS), p.CoalescedRuns,
		p.CoalescedPages, uint64(p.IOWaitNS), p.Windows, p.WindowsLevel1, p.IntersectLinear, p.IntersectGallop,
		p.IntersectKWay, p.IntersectProbe, p.StealSplits, p.Checkpoints, p.EmbInternal, p.EmbExternal, p.SharedPages}
}

// TestRegistryIsScopeSum: what a query owns is counted into its scope alone,
// and the registry only from the scopes' settles. On one registry, which four
// engines share, after solo
// runs (resident and windowed), a killed and resumed run, a run whose
// transient faults the retry layer absorbed and a two-rider cohort with one
// rider cancelled mid-sweep, every counter that mirrors a scope field is the
// sum over the scopes, the sweep's included, and the sweep's pages are
// dualsim_sweep_pages_read_total. A finished solo run's Result.Metrics holds
// its own counts: what the registry moved by during the run.
func TestRegistryIsScopeSum(t *testing.T) {
	db := buildDB(t, randomGraph(17, 400, 2400), storage.BuildOptions{PageSize: 128})
	reg := obs.NewRegistry()
	var scopes []*obs.Scope
	engine := func(src core.Database, frames int, retry *storage.RetryPolicy) *core.Engine {
		e, err := core.NewEngine(src, core.Options{Threads: 2, BufferFrames: frames, Retry: retry, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	solo := func(e *core.Engine, ctx context.Context, spec core.RunSpec) error {
		spec.Plan, spec.Scope = mustPlan(t, graph.Square()), obs.NewScope("")
		scopes = append(scopes, spec.Scope)
		before := reg.Snapshot().Counters
		res, err := e.RunSpecContext(ctx, spec)
		if err != nil {
			return err
		}
		for i, n := range fields(*res.Profile) {
			if name := mirrored[i]; res.Metrics.Counters[name]-before[name] != n {
				t.Errorf("%s moved by %d in a run that counted %d", name, res.Metrics.Counters[name]-before[name], n)
			}
		}
		return nil
	}
	windowed := engine(db, 24, nil)
	ctx, kill := context.WithCancel(context.Background())
	var last core.Checkpoint
	if err := solo(engine(db, 2*db.NumPages(), nil), ctx, core.RunSpec{}); err != nil {
		t.Fatal(err)
	}
	if err := solo(windowed, ctx, core.RunSpec{OnCheckpoint: func(cp core.Checkpoint) { last = cp; kill() }}); !errors.Is(err, context.Canceled) || last.Windows == 0 {
		t.Fatalf("killed run: %v after %d windows", err, last.Windows)
	}
	faulty := faultdb.Wrap(db, faultdb.Options{}).TransientPages(2, 0, 3)
	retry := &storage.RetryPolicy{MaxRetries: 3, Sleep: func(time.Duration) {}}
	if err := solo(windowed, context.Background(), core.RunSpec{Resume: &last}); err != nil {
		t.Fatal(err)
	}
	if err := solo(engine(faulty, 24, retry), context.Background(), core.RunSpec{}); err != nil || faulty.Stats().Injected == 0 {
		t.Fatalf("faulted run: %v after %+v", err, faulty.Stats())
	}

	sched := New(engine(db, 48, nil), Options{MaxRiders: 2, Metrics: reg})
	scopes = append(scopes, sched.sweepScope)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		spec := core.RunSpec{Plan: mustPlan(t, graph.Triangle()), Scope: obs.NewScope("")}
		if i == 1 { // cancelled by its first rows
			spec.OnRows = func([]graph.VertexID, int) { cancel() }
		}
		scopes = append(scopes, spec.Scope)
		wg.Add(1)
		go func() { defer wg.Done(); _, errs[i] = sched.Run(ctx, spec) }()
	}
	wg.Wait()
	sched.Close()
	if errs[0] != nil || !errors.Is(errs[1], context.Canceled) {
		t.Fatalf("riders: %v", errs)
	}
	sums := make([]uint64, len(mirrored))
	for _, sc := range scopes {
		for i, n := range fields(sc.Profile()) {
			sums[i] += n
		}
	}
	c := reg.Snapshot().Counters
	for i, name := range mirrored {
		if c[name] != sums[i] || sums[i] == 0 && name == "dualsim_shared_pages_total" {
			t.Errorf("%s = %d, the scopes counted %d", name, c[name], sums[i])
		}
	}
	if got, want := c["dualsim_sweep_pages_read_total"], sched.sweepScope.PagesRead.Load(); got != want || want == 0 {
		t.Errorf("dualsim_sweep_pages_read_total = %d, the sweep's scope read %d", got, want)
	}
	if runs := uint64(len(scopes) - 1); c["dualsim_runs_total"] != runs { // every scope but the sweep's is a run's
		t.Errorf("dualsim_runs_total = %d after %d runs on four engines", c["dualsim_runs_total"], runs)
	}
}
