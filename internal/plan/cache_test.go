package plan

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dualsim/internal/graph"
	"dualsim/internal/obs"
)

func TestCacheHitMissEvict(t *testing.T) {
	c := NewCache(2)
	mk := func(q *graph.Query) *Plan {
		p, err := Prepare(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, ok := c.Get("tri"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("tri", mk(graph.Triangle()))
	c.Put("sq", mk(graph.Square()))
	if p, ok := c.Get("tri"); !ok || p.Query.Name() != "q1-triangle" {
		t.Fatalf("tri lookup: ok=%v", ok)
	}
	// Third insert evicts the LRU entry ("sq": "tri" was touched above).
	c.Put("house", mk(graph.House()))
	if _, ok := c.Get("sq"); ok {
		t.Fatal("sq survived eviction")
	}
	if _, ok := c.Get("tri"); !ok {
		t.Fatal("tri evicted out of LRU order")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheRegisterMetrics(t *testing.T) {
	c := NewCache(4)
	reg := obs.NewRegistry()
	c.Register(reg)
	p, err := Prepare(graph.Triangle(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", p)
	c.Get("k")
	c.Get("absent")
	s := reg.Snapshot()
	if s.Counters["dualsim_plan_cache_hits_total"] != 1 {
		t.Errorf("hits = %d", s.Counters["dualsim_plan_cache_hits_total"])
	}
	if s.Counters["dualsim_plan_cache_misses_total"] != 1 {
		t.Errorf("misses = %d", s.Counters["dualsim_plan_cache_misses_total"])
	}
	if s.Gauges["dualsim_plan_cache_size"] != 1 {
		t.Errorf("size = %g", s.Gauges["dualsim_plan_cache_size"])
	}
	if r := s.Gauges["dualsim_plan_cache_hit_ratio"]; r != 0.5 {
		t.Errorf("hit ratio = %g", r)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines; correctness is
// "no race, no lost entries" under -race.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(8)
	queries := graph.PaperQueries()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(w+i)%len(queries)]
				key := fmt.Sprintf("k%d", (w+i)%len(queries))
				if _, ok := c.Get(key); !ok {
					p, err := Prepare(q, Options{})
					if err != nil {
						t.Error(err)
						return
					}
					c.Put(key, p)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != len(queries) {
		t.Errorf("len = %d, want %d", c.Len(), len(queries))
	}
}

// TestGetOrBuildSingleflight: N concurrent misses on one key must run the
// builder exactly once, with every waiter receiving the same plan.
func TestGetOrBuildSingleflight(t *testing.T) {
	c := NewCache(4)
	const n = 32
	var builds atomic.Uint64
	gate := make(chan struct{})
	build := func() (*Plan, error) {
		builds.Add(1)
		<-gate // hold the build open so all callers pile up behind it
		return Prepare(graph.Triangle(), Options{})
	}
	var wg sync.WaitGroup
	plans := make([]*Plan, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], _, errs[i] = c.GetOrBuild("tri", build)
		}(i)
	}
	// Let the goroutines reach the flight map, then release the builder.
	for c.Stats().Shared+c.Stats().Hits+1 < n {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("builder ran %d times, want 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("caller %d got a different *Plan instance", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (singleflight)", st.Misses)
	}
	if st.Shared+st.Hits != n-1 {
		t.Errorf("shared+hits = %d, want %d", st.Shared+st.Hits, n-1)
	}
	// The plan landed in the cache: the next lookup is a plain hit.
	if p, built, err := c.GetOrBuild("tri", func() (*Plan, error) {
		t.Fatal("builder ran on a cached key")
		return nil, nil
	}); err != nil || built || p != plans[0] {
		t.Fatalf("post-build lookup: p=%p built=%v err=%v", p, built, err)
	}
}

// TestGetOrBuildErrorNotCached: a failed build propagates to all waiters
// and is not cached — the next call retries the builder.
func TestGetOrBuildErrorNotCached(t *testing.T) {
	c := NewCache(4)
	boom := errors.New("boom")
	if _, _, err := c.GetOrBuild("k", func() (*Plan, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed build was cached (len=%d)", c.Len())
	}
	p, _, err := c.GetOrBuild("k", func() (*Plan, error) { return Prepare(graph.Triangle(), Options{}) })
	if err != nil || p == nil {
		t.Fatalf("retry after failed build: p=%v err=%v", p, err)
	}
}
