#!/usr/bin/env bash
# pairs.sh — compares two commits on the benchmark in alternating pairs.
#
#   scripts/pairs.sh <parent> <change> [--pairs N] [--workload w[,w...]]
#                    [--seed s] [--json FILE] [--bench REGEX]
#
# Each commit is `git archive`d into benchmark/out/pairs/<commit>/ and runs
# through its own benchmark/run.sh (untraced, one workload per run), so what
# is measured is what each tree builds. Uncommitted work is compared as
# `git add -A && scripts/pairs.sh HEAD "$(git stash create)"`.
#
# One 5 s throw-away run of the change comes first. Then N pairs (default
# 10) of every workload (default: all of BENCHMARK.json's), the parent first
# in odd pairs and the change first in even ones, each run as long as
# BENCHMARK.json's run_seconds. For every end-to-end metric of
# BENCHMARK.json it prints both medians with their quartiles, the paired
# ratio (change ÷ parent within a pair) with its quartiles and the pairs
# each side won, and a verdict:
#   resolved  at least 10 pairs ran, the change won (or lost) at least 9 in
#             10 of them, the paired-ratio quartiles exclude 1.0, and the
#             medians differ by more than the parent's inter-quartile range
#             ("better, but more operations failed" when the change failed
#             more operations than the parent);
#   bound     whether that difference is also larger than the metric's bound
#             (the second half of rule (b) in ROADMAP.md).
# The same numbers, every run's value and the failed share of operations go
# to the --json file (default benchmark/out/pairs/pairs.json). Runs take
# about run_seconds + 10 s each; the raw results stay in
# benchmark/out/pairs/runs/.
#
# With --bench the pairs are in-process: each tree's root test binary is
# built once and run as `-test.bench REGEX -test.count 1 -test.benchtime 2s`
# (no HTTP, no server: BenchmarkResident* isolates the matching path), the
# parent first in odd pairs. Every benchmark the regex matches is a
# "workload" of the --json file, every unit it reports (ns/op, pages/op, …)
# a metric, lower being better, judged by the same verdict with the bound of
# BENCHMARK.json's q1_p50_ms. A benchmark that fails counts as a failed
# operation. Each run takes a few seconds per benchmark.
set -euo pipefail

usage() {
    sed -n '3,4p' "$0" | sed 's/^# *//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
shift 2
pairs=10 workloads="" seed=1 json=benchmark/out/pairs/pairs.json bench=""
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
    --pairs) pairs=$2 ;;
    --workload) workloads=$2 ;;
    --seed) seed=$2 ;;
    --json) json=$2 ;;
    --bench) bench=$2 ;;
    *) usage ;;
    esac
    shift 2
done
if [ -n "$bench" ]; then
    workloads=inprocess
elif [ -z "$workloads" ]; then
    workloads=$(python3 -c 'import json,sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' BENCHMARK.json)
fi
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)
[ -z "$bench" ] || seconds=2

out=benchmark/out/pairs
runs=$out/runs
rm -rf "$runs"
mkdir -p "$runs"

# tree extracts a commit once; its build cache stays with it for later calls.
tree() {
    local dir=$out/${1:0:12}
    if [ ! -f "$dir/.extracted" ]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git archive "$1" | tar -x -C "$dir"
        touch "$dir/.extracted"
    fi
    echo "$dir"
}
parentDir=$(tree "$parent")
changeDir=$(tree "$change")

# bench runs one workload on one tree and keeps its result: the one-line JSON
# of benchmark/run.sh, or in-process the test binary's benchmark lines.
bench() { # dir workload seconds result-file
    echo "pairs: $(basename "$1") $2 ${3}s -> $4" >&2
    if [ -n "$bench" ]; then
        (cd "$1" && ./root.test -test.run '^$' -test.bench "$bench" -test.count 1 -test.benchtime "${3}s") >"$4" || true
    else
        bash "$1/benchmark/run.sh" --workload "$2" --seed "$seed" --seconds "$3" --trace 0 >"$4"
    fi
}

if [ -n "$bench" ]; then
    for dir in "$parentDir" "$changeDir"; do
        [ -x "$dir/root.test" ] || (cd "$dir" && go test -c -o root.test .)
    done
fi
IFS=, read -r -a wl <<<"$workloads"
bench "$changeDir" "${wl[0]}" 5 "$runs/throwaway.json"
for ((i = 1; i <= pairs; i++)); do
    for w in "${wl[@]}"; do
        if ((i % 2)); then
            bench "$parentDir" "$w" "$seconds" "$runs/$w.parent.$i.json"
            bench "$changeDir" "$w" "$seconds" "$runs/$w.change.$i.json"
        else
            bench "$changeDir" "$w" "$seconds" "$runs/$w.change.$i.json"
            bench "$parentDir" "$w" "$seconds" "$runs/$w.parent.$i.json"
        fi
    done
done

mkdir -p "$(dirname "$json")"
python3 - "$changeDir/BENCHMARK.json" "$runs" "$json" "$parent" "$change" "$seed" "$seconds" "$pairs" "$bench" "${wl[@]}" <<'EOF'
import json, re, sys

spec_path, runs, out, parent, change, seed, seconds, pairs, bench = sys.argv[1:10]
workloads, pairs = sys.argv[10:], int(pairs)
spec = json.load(open(spec_path))
sides = ("parent", "change")


def load(w):
    """Every run of workload w on both sides, and the metrics to judge."""
    if not bench:
        return ({side: [json.load(open(f"{runs}/{w}.{side}.{i}.json")) for i in range(1, pairs + 1)]
                 for side in sides}, spec["end_to_end"])
    # In-process: "BenchmarkX-2  N  v1 unit1  v2 unit2 ..." lines, one run
    # per benchmark and pair; a benchmark missing from a run failed there.
    lines = {side: [open(f"{runs}/{w}.{side}.{i}.json").read() for i in range(1, pairs + 1)] for side in sides}
    def benchmarks(text):
        out = {}
        for m in re.finditer(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$", text, re.M):
            toks = m.group(2).split()
            out[m.group(1)] = {toks[i + 1]: float(toks[i]) for i in range(0, len(toks) - 1, 2)}
        return out

    parsed = {side: [benchmarks(text) for text in lines[side]] for side in sides}
    return parsed, None


def inprocess_workloads(parsed):
    """Splits in-process runs into one workload per benchmark, in the
    run-JSON shape of benchmark/run.sh, with one metric per unit."""
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "q1_p50_ms")
    names = sorted({b for side in sides for run in parsed[side] for b in run})
    out = {}
    for b in names:
        units = sorted({u for side in sides for run in parsed[side] for u in run.get(b, {})})
        res = {side: [{"correct": b in run, "attempted": 1, "failed": int(b not in run),
                       "metrics": {u: {"value": run.get(b, {}).get(u, float("nan"))} for u in units}}
                      for run in parsed[side]] for side in sides}
        out[b] = (res, [{"name": u, "better": "lower", "bound": bound} for u in units])
    return out


def quartiles(xs):
    """Median and quartiles, interpolated linearly between order statistics."""
    xs = sorted(xs)

    def q(p):
        k = (len(xs) - 1) * p
        f = int(k)
        return xs[f] + (xs[min(f + 1, len(xs) - 1)] - xs[f]) * (k - f)

    return {"median": q(0.5), "q1": q(0.25), "q3": q(0.75)}


doc = {"parent": parent, "change": change, "seed": int(seed), "seconds": float(seconds),
       "pairs": pairs, "order": "pair i runs the parent first when i is odd", "workloads": {}}
todo = {}
for w in workloads:
    res, metrics = load(w)
    todo.update(inprocess_workloads(res) if bench else {w: (res, metrics)})
for w, (res, metrics) in todo.items():
    wd = {side: {"correct": all(r["correct"] for r in rs),
                 "attempted": sum(r["attempted"] for r in rs),
                 "failed": sum(r["failed"] for r in rs)} for side, rs in res.items()}
    print(f"\n{w}: {pairs} pairs, seed {seed}, {seconds} s; failed operations: "
          f"parent {wd['parent']['failed']}/{wd['parent']['attempted']}, "
          f"change {wd['change']['failed']}/{wd['change']['attempted']}")
    wd["metrics"] = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in res["parent"]]
        c = [r["metrics"][name]["value"] for r in res["change"]]
        ratios = [b / a if a else float("nan") for a, b in zip(p, c)]
        won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        lost = sum((b > a) if lower else (b < a) for a, b in zip(p, c))
        ps, cs, rs = quartiles(p), quartiles(c), quartiles(ratios)
        shift = cs["median"] / ps["median"] - 1 if ps["median"] else 0.0
        iqr = (ps["q3"] - ps["q1"]) / ps["median"] if ps["median"] else 0.0
        resolved = (pairs >= 10 and max(won, lost) * 10 >= 9 * pairs
                    and not rs["q1"] <= 1 <= rs["q3"] and abs(shift) > iqr)
        better = (shift < 0) == lower
        verdict = "unresolved"
        if resolved:
            verdict = "better" if better else "worse"
            if better and wd["change"]["failed"] > wd["parent"]["failed"]:
                verdict = "better, but more operations failed"
        clears = resolved and abs(shift) > m["bound"]
        wd["metrics"][name] = {
            "better": m["better"], "bound": m["bound"], "n": pairs,
            "parent": ps, "change": cs, "shift": shift, "parent_iqr": iqr,
            "ratio": rs, "won": won, "lost": lost, "verdict": verdict,
            "clears_bound": clears, "runs": {"parent": p, "change": c}}
        if resolved:
            verdict += ", bound %.0f%% %s" % (100 * m["bound"], "cleared" if clears else "not cleared")
        print(f"  {name:20} parent {ps['median']:.4g} [{ps['q1']:.4g}–{ps['q3']:.4g}]  "
              f"change {cs['median']:.4g} [{cs['q1']:.4g}–{cs['q3']:.4g}]  "
              f"{shift:+.1%} (parent IQR {iqr:.1%})  ratio {rs['median']:.3f} "
              f"[{rs['q1']:.3f}–{rs['q3']:.3f}] won {won}–{lost}  {verdict}")
    doc["workloads"][w] = wd
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"\nwrote {out}")
EOF
