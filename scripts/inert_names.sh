#!/bin/sh
# Every physical read is a foreground run issued by run.issueRuns, for the
# window — or last-level pass — that is open: there is no speculative read
# path. benchmark/ still compiles against five names from the one that was
# deleted; they stay as inert declarations until ROADMAP item 10(2) deletes
# them once item 1(c) stops benchmark/ referencing them. This guard (make lint, CI) fails
# when "Prefetch" appears in Go code outside benchmark/ anywhere but those
# four field declarations and their one-line comments, or when Sweep.Load
# starts reading its third parameter again.
cd "$(dirname "$0")/.." || exit 1
extra=$(grep -rn 'Prefetch' --include='*.go' . | grep -v '^\./benchmark/' |
	grep -vE '^\./(dualsim|internal/core/engine)\.go:[0-9]+:[[:space:]]+(// PrefetchFrames has no effect; ROADMAP item 10\(2\) removes it\.|PrefetchFrames int)$' |
	grep -vE '^\./internal/obs/scope\.go:[0-9]+:[[:space:]]+Prefetch(Issued|Useful) +uint64 +`json:"prefetch_(issued|useful),omitempty"` +// no effect, never set; ROADMAP item 10\(2\) removes it$')
if [ -n "$extra" ]; then
	echo "$extra"
	echo "Prefetch outside the four inert declarations: reads are issued by run.issueRuns only" >&2
	exit 1
fi
if ! grep -qF 'func (s *Sweep) Load(ctx context.Context, idx, _ int)' internal/core/sweep.go; then
	echo "Sweep.Load's third parameter is inert (_ int) until ROADMAP item 10(2) removes it" >&2
	exit 1
fi
