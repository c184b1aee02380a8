#!/usr/bin/env bash
# lines.sh — counts Go lines per package the way ROADMAP.md does.
#
#   scripts/lines.sh [package-dir ...]
#
# A line counts when it is neither blank nor a comment
# (grep -vE '^\s*(//|$)'). Every tracked Go file outside benchmark/ (its own
# module) is counted, split into product (non-_test.go) and test lines, per
# directory; the last column is test lines over product lines. A total row
# closes the table. With directories given, only their rows are printed (the
# total stays the whole repository's). Run from anywhere in the repository,
# or as `make lines`.
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files --cached --others --exclude-standard -- '*.go' ':!benchmark/*' | while read -r f; do
    n=$(grep -cvE '^\s*(//|$)' "$f" || true)
    kind=product
    case "$f" in *_test.go) kind=test ;; esac
    dir=$(dirname "$f")
    echo "$dir $kind $n"
done | awk -v want="$*" '
BEGIN { n = split(want, w, " "); for (i = 1; i <= n; i++) { d = w[i]; sub(/^\.\//, "", d); sub(/\/$/, "", d); only[d] = 1 } }
{ lines[$1, $2] += $3; dirs[$1] = 1; total[$2] += $3 }
END {
    printf "%-32s %8s %8s %6s\n", "package", "product", "test", "ratio"
    m = 0
    for (d in dirs) sorted[++m] = d
    for (i = 1; i <= m; i++) for (j = i + 1; j <= m; j++) if (sorted[j] < sorted[i]) { t = sorted[i]; sorted[i] = sorted[j]; sorted[j] = t }
    for (i = 1; i <= m; i++) {
        d = sorted[i]
        if (n > 0 && !(d in only)) continue
        p = lines[d, "product"]; t = lines[d, "test"]
        printf "%-32s %8d %8d %6s\n", d, p, t, p ? sprintf("%.2f", t / p) : "-"
    }
    printf "%-32s %8d %8d %6.2f\n", "total", total["product"], total["test"], total["test"] / total["product"]
}'
