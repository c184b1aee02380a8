// Package oracletest is what the repository's differential oracles share:
// which seeds a run draws and the coverage that proves a seed set reached
// every dimension it claims. Each oracle draws one configuration per seed and
// checks it against a reference; this package only chooses the seeds.
package oracletest

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
)

// namedSeed matches a seed named in -run, so that any seed — a soak's
// included — reproduces by its subtest name.
var namedSeed = regexp.MustCompile(`seed=(\d+)`)

// Seeds returns 1..n, a tier-1 seed set.
func Seeds(n int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i) + 1
	}
	return s
}

// Run runs check once per seed, each as the subtest "seed=N". The seeds are
// those named in -run when it names any (so a failing seed reproduces with
// -run 'TestX/seed=N$'); with SOAK_SECONDS set, fresh seeds from above the
// tier until that many seconds have passed, stopping at the first failure;
// otherwise tier. It reports whether the tier ran and passed: only then does
// the caller hold its coverage to the keys the tier must reach.
func Run(t *testing.T, tier []int64, check func(t *testing.T, seed int64)) bool {
	t.Helper()
	run := func(s int64) bool {
		return t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) { check(t, s) })
	}
	var named []int64
	for _, m := range namedSeed.FindAllStringSubmatch(flag.Lookup("test.run").Value.String(), -1) {
		s, _ := strconv.ParseInt(m[1], 10, 64)
		named = append(named, s)
	}
	soak, err := strconv.Atoi(cmp.Or(os.Getenv("SOAK_SECONDS"), "0"))
	if err != nil {
		t.Fatalf("bad SOAK_SECONDS: %v", err)
	}
	switch {
	case len(named) > 0:
		for _, s := range named {
			run(s)
		}
		return false
	case soak > 0:
		deadline := time.Now().Add(time.Duration(soak) * time.Second)
		base := slices.Max(tier) + 1 + time.Now().UnixNano()%1_000_000*1000
		s := base
		for ; time.Now().Before(deadline) && run(s); s++ {
		}
		t.Logf("soak: seeds %d..%d", base, s)
		return false
	}
	for _, s := range tier {
		run(s)
	}
	return !t.Failed()
}

// Coverage counts the dimensions draws reached. It is safe for concurrent
// use.
type Coverage struct {
	mu sync.Mutex
	m  map[string]int
}

// Add counts one reach of each key.
func (c *Coverage) Add(keys ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]int{}
	}
	for _, k := range keys {
		c.m[k]++
	}
}

// String lists every key reached with its count.
func (c *Coverage) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprint(c.m)
}

// Require fails t unless every key was reached: a seed set or a pinned draw
// that stops reaching a dimension proves less than it claims.
func (c *Coverage) Require(t testing.TB, keys ...string) {
	t.Helper()
	c.mu.Lock()
	var missing []string
	for _, k := range keys {
		if c.m[k] == 0 {
			missing = append(missing, k)
		}
	}
	c.mu.Unlock()
	for _, k := range missing {
		t.Errorf("no draw reached %q (coverage %v)", k, c)
	}
}
