#!/bin/sh
# Each count has one home. Every run has an attribution scope — the caller's
# RunSpec.Scope or one the run mints — so the engine keeps no branch for a
# missing one; and the pool's and the retry layer's counters are plain
# registry counters that every engine on the registry settles into, so
# nothing registers a func that reads them off one engine's pool. The cohort's
# sweep, sweep-page and size metrics are registry counters and a registry
# gauge that every scheduler adds to, for the same reason: a compaction
# replaces the scheduler, not the ledger. This guard (make lint, CI) fails
# when non-test internal/core tests a scope for nil, or when non-test Go
# outside benchmark/ registers a func-backed pool, coalescing, retry, cohort
# or sweep metric.
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
exit $status
