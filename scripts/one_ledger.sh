#!/bin/sh
# Each count has one home. Every run has an attribution scope — the caller's
# RunSpec.Scope or one the run mints — so the engine keeps no branch for a
# missing one; and the pool's and the retry layer's counters are plain
# registry counters that every engine on the registry settles into, so
# nothing registers a func that reads them off one engine's pool. The cohort's
# sweep, sweep-page and size metrics are registry counters and a registry
# gauge that every scheduler adds to, for the same reason: a compaction
# replaces the scheduler, not the ledger. And what a query owns has one
# book: the engine and the pool count it into the run's scope alone, and the
# registry's mirrors of scope fields are fed from scope settles in
# internal/core/metrics.go, so no second booking can come back. This guard
# (make lint, CI) fails when non-test internal/core tests a scope for nil,
# when non-test Go outside benchmark/ registers a func-backed pool,
# coalescing, retry, cohort or sweep metric, when non-test internal/core
# touches an engine counter that mirrors a scope field outside metrics.go,
# or when internal/buffer/pool.go declares an atomic.Uint64 but evictions.
cd "$(dirname "$0")/.." || exit 1
status=0
hits=$(grep -nE 'scope [!=]= nil|sc != nil' $(ls internal/core/*.go | grep -v _test.go))
if [ -n "$hits" ]; then
	echo "$hits"
	echo "every run has a scope: no nil-scope branch in internal/core" >&2
	status=1
fi
hits=$(grep -rnE 'CounterFunc(Labeled)?\("dualsim_(pages_read_total|logical_reads_total|buffer_|coalesced_|retry_)' --include='*.go' . |
	grep -v '_test\.go:' | grep -v '^\./benchmark/')
if [ -n "$hits" ]; then
	echo "$hits"
	echo "pool and retry counters are registry counters every engine settles into: no CounterFunc over one engine's pool" >&2
	status=1
fi
hits=$(grep -rnE '(Counter|Gauge)Func(Labeled)?\("dualsim_(cohort_|sweep_)' --include='*.go' . |
	grep -v '_test\.go:' | grep -v '^\./benchmark/')
if [ -n "$hits" ]; then
	echo "$hits"
	echo "cohort and sweep metrics live in the registry every scheduler adds to: no func over one scheduler's state" >&2
	status=1
fi
hits=$(grep -nE 'em\.(pagesRead|logicalReads|bufferHits|pinWaitNanos|coalesced(Runs|Pages)|ioWaitNanos|windows(Level1)?|intersect(Linear|Gallop|KWay)|stealSplits|checkpoints|emb(Internal|External))\b' \
	$(ls internal/core/*.go | grep -v _test.go | grep -v metrics.go))
if [ -n "$hits" ]; then
	echo "$hits"
	echo "one book per count: internal/core counts what a query owns into its scope, and only metrics.go feeds the registry's mirrors from scope settles" >&2
	status=1
fi
hits=$(grep -nE 'atomic\.Uint64' internal/buffer/pool.go | grep -vE '^[0-9]+:\s*evictions\s')
if [ -n "$hits" ]; then
	echo "$hits"
	echo "the pool counts pins and reads into the installed scope: no atomic.Uint64 in internal/buffer/pool.go but evictions" >&2
	status=1
fi
exit $status
