#!/usr/bin/env bash
# Smoke test for `gmap serve`: boots the service on an ephemeral port,
# exercises a profile -> clone round trip through `gmap client`, pokes
# the HTTP edge cases (keep-alive, truncated and oversized bodies) with
# raw sockets, and checks that closing the server's stdin drains it
# cleanly.
#
# Usage: scripts/smoke_serve.sh [path-to-gmap-binary]
set -euo pipefail

GMAP="${1:-target/release/gmap}"
if [[ ! -x "$GMAP" ]]; then
    echo "smoke: $GMAP is not an executable (build with: cargo build --release)" >&2
    exit 1
fi

WORK="$(mktemp -d)"
SERVER_OUT="$WORK/server.out"
mkfifo "$WORK/stdin"
cleanup() {
    # Closing the fifo writer ends the server; kill as a fallback only.
    exec 9>&- 2>/dev/null || true
    if [[ -n "${SERVER_PID:-}" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        sleep 2
        kill "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

# Hold the fifo open on fd 9 so the server's stdin stays open until we
# deliberately close it for graceful shutdown.
# Short read/idle timeouts keep the truncated-body case fast.
"$GMAP" serve --listen 127.0.0.1:0 --workers 2 \
    --read-timeout-ms 1500 --idle-timeout-ms 1500 \
    <"$WORK/stdin" >"$SERVER_OUT" &
SERVER_PID=$!
exec 9>"$WORK/stdin"

# Wait for the bound address to appear on stdout.
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^gmap-serve listening on //p' "$SERVER_OUT" | head -n1)"
    [[ -n "$ADDR" ]] && break
    sleep 0.1
done
if [[ -z "$ADDR" ]]; then
    echo "smoke: server never reported its address" >&2
    cat "$SERVER_OUT" >&2
    exit 1
fi
echo "smoke: server up at $ADDR"

# Buffer a client command's stdout before grepping. Piping straight into
# `grep -q` races under pipefail: grep exits at the first match, the
# client's remaining stdout write takes EPIPE and panics, and the
# pipeline's 101 fails the script (~40%% of runs on a slow host).
expect() { # expect <pattern> <cmd...>
    local pat="$1"; shift
    local out
    out="$("$@")"
    grep -q "$pat" <<<"$out"
}


expect '"status":"ok"' "$GMAP" client health --addr "$ADDR"
echo "smoke: health ok"

PROFILE="$("$GMAP" client profile --addr "$ADDR" --workload kmeans --scale tiny)"
echo "smoke: profile -> $PROFILE"
MODEL="$(printf '%s' "$PROFILE" | sed -n 's/.*"model_id":"\([0-9a-f]*\)".*/\1/p')"
if [[ -z "$MODEL" ]]; then
    echo "smoke: could not extract model_id" >&2
    exit 1
fi

expect '"kernels":' "$GMAP" client clone --addr "$ADDR" --model "$MODEL" --factor 2
echo "smoke: clone ok"

expect '"values":' "$GMAP" client evaluate --addr "$ADDR" --model "$MODEL" --grid 16:4,32:4
echo "smoke: evaluate ok"

# A fig6c-shaped stride-prefetcher grid must ride the single-pass engine.
expect '"single_pass":true' "$GMAP" client evaluate --addr "$ADDR" --model "$MODEL" \
    --grid 8:4,16:4,64:4 --stride-prefetch 64:2:1
echo "smoke: prefetcher evaluate single-pass ok"

# An out-of-envelope prefetcher table is a structured 400, not a crash.
if "$GMAP" client evaluate --addr "$ADDR" --model "$MODEL" --grid 16:4 \
    --stride-prefetch 3:2 >"$WORK/pf.out" 2>&1; then
    echo "smoke: unsupported prefetcher was not rejected" >&2
    exit 1
fi
grep -q 'power of two' "$WORK/pf.out"
echo "smoke: unsupported prefetcher rejected with 400"

# Repeat profile must be a cache hit, visible in /metrics.
expect '"cached":true' "$GMAP" client profile --addr "$ADDR" --workload kmeans --scale tiny
expect '^gmap_cache_hits_total 1' "$GMAP" client metrics --addr "$ADDR"
echo "smoke: cache hit observed in metrics"

# Static analysis over the wire: a named workload is admissible...
expect '"admissible":true' "$GMAP" client analyze --addr "$ADDR" --workload kmeans --scale tiny
echo "smoke: analyze ok"

# ...while an out-of-bounds spec is explained by /v1/analyze and then
# rejected 422 by the admission gate before it ever reaches the queue.
BAD_SPEC="$WORK/oob.json"
"$GMAP" analyze --fixture oob-affine --dump-spec "$BAD_SPEC" >/dev/null 2>&1 || true
[[ -s "$BAD_SPEC" ]] || { echo "smoke: --dump-spec wrote nothing" >&2; exit 1; }
expect '"admissible":false' "$GMAP" client analyze --addr "$ADDR" --spec "$BAD_SPEC"
if "$GMAP" client profile --addr "$ADDR" --spec "$BAD_SPEC" 2>"$WORK/gate.err"; then
    echo "smoke: inadmissible spec was not rejected" >&2
    exit 1
fi
grep -q '422' "$WORK/gate.err"
expect '^gmap_analyze_rejects_total 1' "$GMAP" client metrics --addr "$ADDR"
echo "smoke: admission gate rejected inadmissible spec with 422"

# Streaming ingest: clone a model into a trace file, stream it chunked
# to /v1/ingest, and check that the returned model id equals the content
# key the local (bounded-memory) profiler prints for the same trace.
TRACE="$WORK/clone.txt"
"$GMAP" profile --workload kmeans --scale tiny -o "$WORK/kmeans.json" >/dev/null
"$GMAP" clone -p "$WORK/kmeans.json" --factor 2 -o "$TRACE" >/dev/null
LOCAL="$("$GMAP" profile --trace "$TRACE" --grid 24 --block 128 -o "$WORK/reprofiled.json")"
KEY="$(sed -n 's/^content key: //p' <<<"$LOCAL")"
if [[ -z "$KEY" ]]; then
    echo "smoke: local profile printed no content key" >&2
    exit 1
fi
INGEST="$("$GMAP" client ingest --addr "$ADDR" --trace "$TRACE" \
    --grid 24 --block 128 --chunk 4096)"
INGEST_MODEL="$(printf '%s' "$INGEST" | sed -n 's/.*"model_id":"\([0-9a-f]*\)".*/\1/p')"
if [[ "$INGEST_MODEL" != "$KEY" ]]; then
    echo "smoke: streamed ingest diverged from local profiling" >&2
    echo "  local content key : $KEY" >&2
    echo "  served model id   : $INGEST_MODEL" >&2
    exit 1
fi
grep -q '"pcs":' <<<"$INGEST" || { echo "smoke: ingest reply lacks a heat-map report" >&2; exit 1; }
expect '^gmap_ingest_streams_total 1' "$GMAP" client metrics --addr "$ADDR"
expect '^gmap_ingest_bytes_total [1-9]' "$GMAP" client metrics --addr "$ADDR"
echo "smoke: streamed ingest matches local profiling ($KEY)"

# Raw-socket edge cases via bash's /dev/tcp.
HOST="${ADDR%:*}"
PORT="${ADDR##*:}"

# Keep-alive: two pipelined requests on one connection get two responses;
# the second asks for close, so the server then hangs up.
exec 8<>"/dev/tcp/$HOST/$PORT"
printf 'GET /healthz HTTP/1.1\r\nHost: %s\r\n\r\nGET /healthz HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n' \
    "$ADDR" "$ADDR" >&8
KEEPALIVE="$(cat <&8)"
exec 8<&- 8>&- 2>/dev/null || true
if [[ "$(grep -c 'HTTP/1.1 200' <<<"$KEEPALIVE")" -ne 2 ]]; then
    echo "smoke: keep-alive connection did not serve two responses" >&2
    printf '%s\n' "$KEEPALIVE" >&2
    exit 1
fi
echo "smoke: keep-alive serves two requests on one connection"

# An absurd Content-Length is refused up front with 413 and a close.
exec 8<>"/dev/tcp/$HOST/$PORT"
printf 'POST /v1/profile HTTP/1.1\r\nHost: %s\r\nContent-Length: 99999999\r\n\r\n' "$ADDR" >&8
head -n1 <&8 | grep -q '413'
exec 8<&- 8>&- 2>/dev/null || true
echo "smoke: oversized body rejected with 413"

# A body shorter than its Content-Length stalls mid-request: after the
# read timeout the server answers 408 instead of hanging forever.
exec 8<>"/dev/tcp/$HOST/$PORT"
printf 'POST /v1/profile HTTP/1.1\r\nHost: %s\r\nContent-Length: 50\r\n\r\n{"wor' "$ADDR" >&8
head -n1 <&8 | grep -q '408'
exec 8<&- 8>&- 2>/dev/null || true
echo "smoke: truncated body answered with 408"

# Graceful shutdown: close stdin and expect a clean exit with the drain
# message on stdout.
exec 9>&-
for _ in $(seq 1 100); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "smoke: server did not exit after stdin EOF" >&2
    exit 1
fi
wait "$SERVER_PID"
grep -q 'drained and stopped' "$SERVER_OUT"
echo "smoke: graceful shutdown ok"
