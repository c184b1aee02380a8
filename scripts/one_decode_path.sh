#!/bin/sh
# A compressed page is decoded once, as it lands: the buffer pool parses with
# storage.ParsePage, whose validating walk decodes every record, and the
# engine matches plain lists only. The compressed-domain operand —
# ParsePageLazy, IntersectCompressed, CompCursor and Record.Comp — stays in
# internal/graph and internal/storage, with its tests, for the parse and
# kernel micro-benchmarks of benchmark/. This guard (make lint, CI) fails when
# Go code anywhere else names one of them, so a second decode path cannot
# come back.
cd "$(dirname "$0")/.." || exit 1
hits=$(grep -rnE '\b(ParsePageLazy|IntersectCompressed|CompCursor)\b|\.Comp\b' --include='*.go' . |
	grep -vE '^\./(benchmark|internal/graph|internal/storage)/')
if [ -n "$hits" ]; then
	echo "$hits"
	echo "a second decode path: outside benchmark/, internal/graph and internal/storage, pages are read through storage.ParsePage only" >&2
	exit 1
fi
