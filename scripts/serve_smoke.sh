#!/usr/bin/env sh
# serve_smoke.sh — end-to-end smoke test of `dualsim serve`.
#
# Builds the CLI, builds a database from testdata/karate.txt, starts the
# query service on a free port, queries it over HTTP — a count, then the
# embeddings as a stream — checks the metrics endpoint, then delivers SIGTERM
# and requires a clean (exit 0) drain.
set -eu

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/dualsim" ./cmd/dualsim

echo "== build db"
"$workdir/dualsim" build -edges testdata/karate.txt -db "$workdir/g.db" -pagesize 512

# The ground truth for the assertion below, from the offline path.
expected=$("$workdir/dualsim" run -db "$workdir/g.db" -q q1 -json | sed -n 's/^ *"count": \([0-9]*\),$/\1/p' | head -n 1)
echo "== expected q1 count: $expected"

echo "== serve"
"$workdir/dualsim" serve -db "$workdir/g.db" -addr 127.0.0.1:0 -engines 2 -frames 32 \
    >"$workdir/serve.out" 2>"$workdir/serve.err" &
server_pid=$!

addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^serving .* on \([0-9.:]*\) .*/\1/p' "$workdir/serve.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "FAIL: server never printed its address" >&2
    cat "$workdir/serve.err" >&2
    exit 1
fi
echo "== serving on $addr"

echo "== query"
resp=$(curl -sS -X POST "http://$addr/query" -d '{"query":"q1"}')
echo "$resp"
case "$resp" in
*"\"count\":$expected"*) ;;
*)
    echo "FAIL: response does not carry count=$expected" >&2
    exit 1
    ;;
esac

echo "== stream"
# Every embedding once, as a row of its own, then the trailer.
stream=$(curl -sSN -X POST "http://$addr/query" -d '{"query":"q1","mode":"embeddings"}')
rows=$(printf '%s\n' "$stream" | grep -c '^\[' || true)
distinct=$(printf '%s\n' "$stream" | grep '^\[' | sort -u | wc -l | tr -d ' ')
echo "$rows rows, $distinct distinct"
if [ "$rows" != "$expected" ] || [ "$distinct" != "$expected" ]; then
    echo "FAIL: streamed $rows rows ($distinct distinct), want $expected" >&2
    exit 1
fi
case "$(printf '%s\n' "$stream" | tail -n 1)" in
*'"done":true'*) ;;
*)
    echo "FAIL: the stream does not end in a done trailer" >&2
    exit 1
    ;;
esac

echo "== metrics"
metrics=$(curl -sS "http://$addr/metrics")
for family in dualsim_server_requests_total dualsim_plan_cache_misses_total; do
    case "$metrics" in
    *"$family"*) ;;
    *)
        echo "FAIL: /metrics missing $family" >&2
        exit 1
        ;;
    esac
done

echo "== drain (SIGTERM)"
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
if [ "$rc" -ne 0 ]; then
    echo "FAIL: serve exited $rc after SIGTERM, want 0" >&2
    cat "$workdir/serve.err" >&2
    exit 1
fi

echo "PASS"
