#!/usr/bin/env bash
# CI pipeline: docs link check, configure + build + ctest, an ASan/UBSan
# build of the concurrency-critical tests (evaluator/backend batching,
# the thread pool, the compiled index-space core, the session journal
# and the GBDT's histogram split finder), a TSan build of the service layer (concurrent sessions +
# sharded cache + cluster cache + journal group commit), a kill -9
# durability stage (a journaled server killed mid-grid must recover
# every submitted session id and converge to the uninterrupted
# results), a jit stage (cold-then-warm compiled-backend runs over one
# artifact cache plus the BENCH_jit.json warm-dispatch gate), an obs
# stage (the bench built with and without -DBAT_OBS_OFF, gated at
# 1.03x in BENCH_obs.json, plus a live Prometheus scrape of a running
# server), a live 3-node loopback cluster with gated dedup/relay
# benchmarks, finished by a bench smoke stage that exercises the
# compiled-space paths end to end on reduced sizes.
#
#   $ tools/ci.sh [build_dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"
JOBS="$(nproc)"

echo "=== docs link check ==="
# Every relative markdown link in README.md and docs/*.md must resolve
# (external http(s) links and pure #anchors are out of scope).
broken=0
for doc in README.md docs/*.md; do
  dir="$(dirname "${doc}")"
  # inline links: [text](target), excluding images' optional titles
  while IFS= read -r target; do
    case "${target}" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path="${target%%#*}"                  # strip in-page anchors
    [ -z "${path}" ] && continue
    if [ ! -e "${dir}/${path}" ]; then
      echo "BROKEN LINK in ${doc}: ${target}"
      broken=1
    fi
  done < <(awk '/^```/{code=!code; next} !code' "${doc}" \
             | grep -oE '\]\([^)]+\)' \
             | sed -E 's/^\]\(//; s/\)$//; s/ .*//')
done
[ "${broken}" -eq 0 ] || { echo "docs link check failed"; exit 1; }
echo "all relative links resolve"

echo "=== configure + build (${BUILD_DIR}) ==="
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "=== ctest ==="
# (cd instead of --test-dir: the latter needs CTest >= 3.20, we support 3.16)
(cd "${BUILD_DIR}" && ctest --output-on-failure -j "${JOBS}")

echo "=== ASan/UBSan build of evaluator + thread-pool + compiled-space + io + json/net + ml tests ==="
# common_json_test feeds the parser hostile input (truncations, nesting
# bombs, bad escapes) and net_http_test malformed wire bytes — exactly
# the binaries where ASan/UBSan have teeth.
SAN_DIR="${BUILD_DIR}-asan"
# io_journal_test/service_recovery_test replay deliberately torn and
# bit-flipped journal bytes — recovery paths where an out-of-bounds
# read would be silent in a release build.
# jit_artifact_cache_test byte-flips and truncates real shared objects
# and metadata; jit_backend_test drives dlopen'd code — both are places
# where a stale pointer or over-read would otherwise go unnoticed.
# obs_metrics_test renders the Prometheus exposition from concurrently
# mutated instruments; api_http_test walks the trace ring through the
# JSON serializer — both read shared buffers a bad index would corrupt.
# ml_test/analysis_test fit GBDTs through the flat (feature, bin)
# histogram indexing, where an off-by-one reads a neighbouring
# feature's bin and still yields plausible trees in a release build.
SAN_TESTS=(core_backend_test core_dataset_evaluator_test
           common_thread_pool_test core_compiled_space_test
           io_dataset_test common_json_test net_http_test
           net_rate_limit_test cluster_test io_journal_test
           service_recovery_test jit_backend_test jit_artifact_cache_test
           obs_metrics_test api_http_test ml_test analysis_test)
cmake -B "${SAN_DIR}" -S . -DCMAKE_BUILD_TYPE=Debug -DBAT_SANITIZE=ON
cmake --build "${SAN_DIR}" -j "${JOBS}" --target "${SAN_TESTS[@]}"
for t in "${SAN_TESTS[@]}"; do
  echo "--- ${t} (sanitized) ---"
  "${SAN_DIR}/${t}"
done

echo "=== TSan build of service + thread-pool + backend tests ==="
# The service layer is the one place real cross-thread sharing happens
# (worker pool, sharded cache, cancellation token); run it under
# ThreadSanitizer in addition to the ASan/UBSan pass above.
TSAN_DIR="${BUILD_DIR}-tsan"
# net_http_test/api_http_test add the event-loop threads + handler pool
# + job registry interleavings on top of the service-layer sharing;
# net_rate_limit_test hammers the limiter's single mutex; cluster_test
# races threads through the distributed cache's claim/wait/abandon
# paths over a fake peer link.
# io_journal_test races 8 appenders through the journal's group
# commit; service_recovery_test adds journaled submit/result traffic
# to the worker-pool interleavings.
# jit_backend_test races warm evaluations against cold compiles on the
# dedicated pool and hammers the fn-cache's shared_mutex from batch
# workers; jit_artifact_cache_test races 8 threads through per-key
# load-or-build.
# obs_metrics_test hammers one counter/gauge/histogram and the trace
# ring from 8 threads — the proof that "lock-cheap" means relaxed
# atomics, not silent data races.
TSAN_TESTS=(service_test common_thread_pool_test core_backend_test
            net_http_test net_rate_limit_test api_http_test cluster_test
            io_journal_test service_recovery_test jit_backend_test
            jit_artifact_cache_test obs_metrics_test)
cmake -B "${TSAN_DIR}" -S . -DCMAKE_BUILD_TYPE=Debug -DBAT_SANITIZE_THREAD=ON
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target "${TSAN_TESTS[@]}"
for t in "${TSAN_TESTS[@]}"; do
  echo "--- ${t} (tsan) ---"
  "${TSAN_DIR}/${t}"
done

echo "=== io stage: dataset convert round-trip smoke ==="
# csv -> binary -> csv through the release tune binary must be
# bit-identical on a freshly swept archive (docs/dataset-format.md),
# and the archive must pass its CRC.
IO_TMP="$(mktemp -d)"
NET_TMP="$(mktemp -d)"
SERVE_PID=""
CLUSTER_PIDS=()
cleanup() {
  [ -n "${SERVE_PID}" ] && kill -9 "${SERVE_PID}" 2>/dev/null || true
  for pid in "${CLUSTER_PIDS[@]:-}"; do
    [ -n "${pid}" ] && kill -9 "${pid}" 2>/dev/null || true
  done
  rm -rf "${IO_TMP}" "${NET_TMP}"
}
trap cleanup EXIT
"${BUILD_DIR}/tune" sweep --kernel pnpoly --exhaustive \
    --out "${IO_TMP}/pnpoly.bin" --chunk 1024
"${BUILD_DIR}/tune" info --dataset "${IO_TMP}/pnpoly.bin" --verify
"${BUILD_DIR}/tune" convert --in "${IO_TMP}/pnpoly.bin" \
    --out "${IO_TMP}/a.csv" --verify
"${BUILD_DIR}/tune" convert --in "${IO_TMP}/a.csv" \
    --out "${IO_TMP}/b.bin" --verify
"${BUILD_DIR}/tune" convert --in "${IO_TMP}/b.bin" --out "${IO_TMP}/b.csv"
cmp "${IO_TMP}/a.csv" "${IO_TMP}/b.csv"
echo "csv -> binary -> csv round-trip is bit-identical"

echo "=== jit stage: compiled backend, cold then warm on one artifact dir ==="
# The same tuning run twice through one artifact cache. The first run
# must compile (cold), the second must recompile *nothing* and serve
# every artifact from the cache — and both must land on the identical
# best configuration (the cache can never change results).
JIT_DIR="${IO_TMP}/jit-artifacts"
"${BUILD_DIR}/tune" run --kernel pnpoly --tuner local --budget 8 \
    --backend jit --artifact-dir "${JIT_DIR}" > "${IO_TMP}/jit_cold.txt"
grep -qE 'jit: compiles=[1-9]' "${IO_TMP}/jit_cold.txt" \
    || { echo "cold jit run compiled nothing"; exit 1; }
"${BUILD_DIR}/tune" run --kernel pnpoly --tuner local --budget 8 \
    --backend jit --artifact-dir "${JIT_DIR}" > "${IO_TMP}/jit_warm.txt"
grep -qE 'jit: compiles=0 ' "${IO_TMP}/jit_warm.txt" \
    || { echo "warm jit run recompiled"; exit 1; }
grep -qE 'artifact_cache_hits=[1-9]' "${IO_TMP}/jit_warm.txt" \
    || { echo "warm jit run missed the artifact cache"; exit 1; }
cmp <(grep '^best' "${IO_TMP}/jit_cold.txt") \
    <(grep '^best' "${IO_TMP}/jit_warm.txt") \
    || { echo "cold and warm jit runs disagree on the best config"; exit 1; }
echo "jit cold/warm round trip ok (second run: zero compiles, cache hits)"

echo "=== jit compile bench (BENCH_jit.json): warm dispatch vs live ==="
# Gates (from the release build, docs/jit.md):
#   parity                     warm objectives bit-identical to live;
#   max_warm_vs_live <= 1.15   steady-state dispatch within noise of
#                              the live backend across all kernels;
#   total_cold_compiles > 0    the cold leg really compiled;
#   total_second_run_compiles == 0  a fresh process on the same dir
#                              reuses every artifact.
"${BUILD_DIR}/jit_compile" --configs 4 --repeats 100 \
    --artifact-dir "${IO_TMP}/jit-bench" --out BENCH_jit.json
python3 - <<'EOF'
import json, sys
with open("BENCH_jit.json") as f:
    report = json.load(f)
for name, k in report["kernels"].items():
    print(f"{name}: cold {k['cold_wall_ms']:.0f}ms ({k['cold_compiles']} "
          f"compiles), warm/live {k['warm_vs_live']:.2f}, cold/warm "
          f"{k['cold_vs_warm_speedup']:.0f}x, "
          f"2nd-run compiles {k['second_run_compiles']}")
print(f"max warm/live {report['max_warm_vs_live']:.3f} (gate 1.15), "
      f"parity {report['parity']}")
ok = report["parity"]
ok &= report["max_warm_vs_live"] <= 1.15
ok &= report["total_cold_compiles"] > 0
ok &= report["total_second_run_compiles"] == 0
sys.exit(0 if ok else 1)
EOF

echo "=== obs overhead (BENCH_obs.json): instrumented vs BAT_OBS_OFF ==="
# The observability tax, measured: the same bench binary built twice —
# the release build (metrics + spans live by default) and a
# -DBAT_OBS_OFF=ON twin with every mutation compiled out. Gate
# (docs/observability.md): the end-to-end hot paths, warm-jit-dispatch
# and http-rps (the live-loopback HTTP baseline), must stay within
# 1.03x of the uninstrumented baseline. The micro scenarios
# (counter-add, histogram-observe, cache-claim, http-handle) are
# reported for trend-watching but not gated — a lone atomic add has no
# meaningful "off" baseline to divide by, and the per-request span is
# priced against a real request, not a bare in-process dispatch.
OBS_OFF_DIR="${BUILD_DIR}-obsoff"
cmake -B "${OBS_OFF_DIR}" -S . -DCMAKE_BUILD_TYPE=Release -DBAT_OBS_OFF=ON
cmake --build "${OBS_OFF_DIR}" -j "${JOBS}" --target obs_overhead
# Interleave 3 runs of each build and gate on the per-scenario minima:
# each invocation is already min-of-N internally, and alternating the
# binaries decorrelates slow machine drift from the on/off comparison
# (a loaded CI box must not fail the gate, nor mask a regression).
for i in 1 2 3; do
  "${BUILD_DIR}/obs_overhead" --artifact-dir "${IO_TMP}/obs-on" \
      --out "${IO_TMP}/obs_on_${i}.json"
  "${OBS_OFF_DIR}/obs_overhead" --artifact-dir "${IO_TMP}/obs-off" \
      --out "${IO_TMP}/obs_off_${i}.json"
done
IO_TMP="${IO_TMP}" python3 - <<'EOF'
import json, os, sys
tmp = os.environ["IO_TMP"]
def minima(prefix, expect_enabled):
    best = {}
    for i in (1, 2, 3):
        with open(f"{tmp}/{prefix}_{i}.json") as f:
            report = json.load(f)
        assert report["obs_enabled"] == expect_enabled
        for name, scen in report["scenarios"].items():
            best[name] = min(best.get(name, float("inf")),
                             scen["per_repeat_ns"])
    return best
on = minima("obs_on", True)
off = minima("obs_off", False)
GATED = ("warm-jit-dispatch", "http-rps")
GATE = 1.03
merged = {"gate_max_ratio": GATE, "scenarios": {}}
ok = True
for name in sorted(on):
    ratio = on[name] / off[name] if off[name] else 0.0
    merged["scenarios"][name] = {
        "on_ns": on[name],
        "off_ns": off[name],
        "ratio": ratio,
        "gated": name in GATED,
    }
    flag = ""
    if name in GATED and ratio > GATE:
        ok = False
        flag = f"  <-- over the {GATE}x gate"
    print(f"{name:18s} on {on[name]:10.1f}ns  off {off[name]:10.1f}ns  "
          f"ratio {ratio:5.2f}"
          f"{' (gated)' if name in GATED else ''}{flag}")
merged["ok"] = ok
with open("BENCH_obs.json", "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print("obs overhead gate " + ("ok" if ok else "FAILED"))
sys.exit(0 if ok else 1)
EOF

echo "=== net stage: serve + remote round trip over loopback ==="
# Start the release server on an ephemeral port, drive it with the
# remote client (sync gemm replay run, async submit/poll, stats), stop
# it with SIGINT and require a clean exit — the end-to-end path a
# remote tuner client takes, against the same binary users run.
"${BUILD_DIR}/tune" serve --port 0 > "${NET_TMP}/serve.log" 2>&1 &
SERVE_PID=$!
NET_PORT=""
for _ in $(seq 1 100); do
  NET_PORT="$(grep -oE 'http://[0-9.]+:[0-9]+' "${NET_TMP}/serve.log" \
                | grep -oE '[0-9]+$' || true)"
  [ -n "${NET_PORT}" ] && break
  sleep 0.1
done
[ -n "${NET_PORT}" ] || { echo "tune serve never came up"; exit 1; }
SERVER="127.0.0.1:${NET_PORT}"
"${BUILD_DIR}/tune" remote run --server "${SERVER}" --kernel gemm \
    --tuner local --budget 50 --backend replay
"${BUILD_DIR}/tune" remote run --server "${SERVER}" --kernel gemm \
    --tuner local --budget 50 --backend replay --async
"${BUILD_DIR}/tune" remote get --server "${SERVER}" --id 1 > /dev/null
"${BUILD_DIR}/tune" remote stats --server "${SERVER}" \
    | grep -q '"cross_session_hits": [1-9]' \
    || { echo "expected cross-session hits across remote clients"; exit 1; }
"${BUILD_DIR}/tune" remote spaces --server "${SERVER}" > /dev/null

# obs: the same live server must answer health, the operator summary
# and a per-session span timeline, and its /v1/metrics exposition must
# be *parseable* Prometheus text (0.0.4), not just non-empty.
"${BUILD_DIR}/tune" remote health --server "${SERVER}" \
    | grep -q '"status": "ready"' \
    || { echo "/v1/healthz did not report ready"; exit 1; }
"${BUILD_DIR}/tune" remote top --server "${SERVER}" > /dev/null
"${BUILD_DIR}/tune" remote trace --server "${SERVER}" --id 1 \
    | grep -q 'evaluate' \
    || { echo "session 1 trace missing its evaluate span"; exit 1; }
SERVER="${SERVER}" python3 - <<'EOF'
import os, sys, urllib.request
with urllib.request.urlopen(
        "http://" + os.environ["SERVER"] + "/v1/metrics") as resp:
    ctype = resp.headers.get("Content-Type", "")
    text = resp.read().decode()
assert ctype.startswith("text/plain; version=0.0.4"), ctype
typed, samples = {}, {}
for line in text.splitlines():
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split(" ")
        assert name not in typed, f"duplicate family {name}"
        typed[name] = kind
        continue
    if line.startswith("#") or not line:
        continue
    name = line.split("{", 1)[0].split(" ", 1)[0]
    samples[name] = samples.get(name, 0.0) + float(line.rsplit(" ", 1)[1])
for name, kind in [("bat_sessions_submitted_total", "counter"),
                   ("bat_cache_lookups_total", "counter"),
                   ("bat_http_requests_total", "counter"),
                   ("bat_sessions_active", "gauge"),
                   ("bat_build_info", "gauge"),
                   ("bat_session_duration_seconds", "histogram"),
                   ("bat_trace_spans_recorded_total", "counter")]:
    assert typed.get(name) == kind, (name, typed.get(name))
assert samples["bat_sessions_submitted_total"] >= 2
assert samples["bat_http_requests_total"] > 0
print(f"live scrape ok: {len(typed)} families, "
      f"{samples['bat_sessions_submitted_total']:.0f} sessions submitted")
EOF

kill -INT "${SERVE_PID}"
wait "${SERVE_PID}" || { echo "tune serve exited non-zero"; exit 1; }
SERVE_PID=""
echo "serve/remote round trip ok (port ${NET_PORT})"

echo "=== durability stage: kill -9 mid-grid, journal recovery ==="
# A journaled single-worker server takes an 8-session grid and is
# SIGKILLed while most of it is still queued (the first session's
# replay sweep keeps the lone worker busy). A second server on the
# same --journal-dir must (a) find every submitted id, (b) run the
# grid to completion, and (c) produce results identical — wall clock
# aside — to an uninterrupted server given the same grid. That is the
# paper trail for docs/durability.md's headline claim: an acknowledged
# id survives kill -9 with nothing but fsync underneath it.
wait_for_port() {  # log file -> prints the ephemeral port
  local log="$1" port=""
  for _ in $(seq 1 100); do
    port="$(grep -oE 'http://[0-9.]+:[0-9]+' "${log}" \
              | grep -oE '[0-9]+$' || true)"
    [ -n "${port}" ] && { echo "${port}"; return 0; }
    sleep 0.1
  done
  return 1
}
submit_durability_grid() {  # server -> session ids, one per line
  local server="$1" i tuner
  for i in $(seq 0 7); do
    tuner=local; [ $((i % 2)) -eq 1 ] && tuner=annealing
    "${BUILD_DIR}/tune" remote submit --server "${server}" \
        --kernel gemm --tuner "${tuner}" --budget 40 \
        --seed $((7 + i % 3)) --backend replay
  done
}
fetch_done_session() {  # server id out.json -> polls until "done"
  local server="$1" id="$2" out="$3"
  for _ in $(seq 1 600); do
    "${BUILD_DIR}/tune" remote get --server "${server}" --id "${id}" \
        > "${out}" || return 1
    grep -q '"state": "done"' "${out}" && return 0
    sleep 0.2
  done
  return 1
}
JOURNAL_DIR="${NET_TMP}/journal"
"${BUILD_DIR}/tune" serve --port 0 --workers 1 \
    --journal-dir "${JOURNAL_DIR}" > "${NET_TMP}/dur1.log" 2>&1 &
SERVE_PID=$!
DUR_PORT="$(wait_for_port "${NET_TMP}/dur1.log")" \
    || { echo "durability server never came up"; exit 1; }
mapfile -t DUR_IDS < <(submit_durability_grid "127.0.0.1:${DUR_PORT}")
[ "${#DUR_IDS[@]}" -eq 8 ] || { echo "expected 8 submitted ids"; exit 1; }
kill -9 "${SERVE_PID}"
wait "${SERVE_PID}" 2>/dev/null || true
SERVE_PID=""

"${BUILD_DIR}/tune" serve --port 0 --workers 1 \
    --journal-dir "${JOURNAL_DIR}" > "${NET_TMP}/dur2.log" 2>&1 &
SERVE_PID=$!
DUR_PORT="$(wait_for_port "${NET_TMP}/dur2.log")" \
    || { echo "restarted durability server never came up"; exit 1; }
DUR_SERVER="127.0.0.1:${DUR_PORT}"
grep -q "tune serve: journal" "${NET_TMP}/dur2.log" \
    || { echo "restart did not report journal recovery"; exit 1; }
# (a) no acknowledged id was lost, (b) the whole grid completes.
for id in "${DUR_IDS[@]}"; do
  "${BUILD_DIR}/tune" remote get --server "${DUR_SERVER}" --id "${id}" \
      > /dev/null || { echo "id ${id} lost by kill -9"; exit 1; }
done
for id in "${DUR_IDS[@]}"; do
  fetch_done_session "${DUR_SERVER}" "${id}" \
      "${NET_TMP}/dur_recovered_${id}.json" \
      || { echo "id ${id} never completed after recovery"; exit 1; }
done
"${BUILD_DIR}/tune" remote stats --server "${DUR_SERVER}" \
    | grep -q '"enabled": true' \
    || { echo "/v1/stats durability section missing"; exit 1; }
kill -INT "${SERVE_PID}"
wait "${SERVE_PID}" || { echo "recovered server exited non-zero"; exit 1; }
SERVE_PID=""

# (c) the uninterrupted reference: same grid on a fresh journal-less
# server; ids are allocated identically (1..8), so results pair up.
"${BUILD_DIR}/tune" serve --port 0 --workers 1 \
    > "${NET_TMP}/dur_ref.log" 2>&1 &
SERVE_PID=$!
REF_PORT="$(wait_for_port "${NET_TMP}/dur_ref.log")" \
    || { echo "reference server never came up"; exit 1; }
REF_SERVER="127.0.0.1:${REF_PORT}"
mapfile -t REF_IDS < <(submit_durability_grid "${REF_SERVER}")
for id in "${REF_IDS[@]}"; do
  fetch_done_session "${REF_SERVER}" "${id}" \
      "${NET_TMP}/dur_reference_${id}.json" \
      || { echo "reference id ${id} never completed"; exit 1; }
done
kill -INT "${SERVE_PID}"
wait "${SERVE_PID}" || { echo "reference server exited non-zero"; exit 1; }
SERVE_PID=""
NET_TMP="${NET_TMP}" python3 - <<'EOF'
import json, os, sys
tmp = os.environ["NET_TMP"]
ok = True
for sid in range(1, 9):
    with open(f"{tmp}/dur_recovered_{sid}.json") as f:
        recovered = json.load(f)["result"]
    with open(f"{tmp}/dur_reference_{sid}.json") as f:
        reference = json.load(f)["result"]
    recovered.pop("wall_ms"); reference.pop("wall_ms")
    if recovered != reference:
        print(f"id {sid}: recovered result differs from uninterrupted run")
        ok = False
print("kill -9 recovery matches the uninterrupted grid" if ok else
      "durability gate FAILED")
sys.exit(0 if ok else 1)
EOF
echo "durability stage ok (journal ${JOURNAL_DIR})"

echo "=== net throughput (BENCH_net.json): baseline + 1k conns + overload ==="
# All three scenarios from the release build. Floors are deliberately
# far below what one core does (~100x headroom) so the gates catch
# structural regressions, not machine noise:
#   baseline          >= 1000 req/s, zero failures;
#   high_concurrency  >= 1024 concurrent keep-alive connections served
#                     within 0.8x of baseline throughput;
#   overload          offered load far above the per-client bucket must
#                     shed via 429 while admitted goodput stays flat
#                     (second half >= 0.7x first half), not collapse.
"${BUILD_DIR}/net_throughput" --scenario all --clients 4 --seconds 2 \
    --connections 1024 --threads 4 --out BENCH_net.json
python3 - <<'EOF'
import json, sys
with open("BENCH_net.json") as f:
    report = json.load(f)
scen = report["scenarios"]
ok = True

base = scen["baseline"]
rps = base["requests_per_second"]
print(f"baseline: {rps:.0f} req/s, {base['failures']} failures, "
      f"p50 {base['latency_ms']['p50']:.3f}ms p99 {base['latency_ms']['p99']:.3f}ms")
ok &= rps >= 1000 and base["failures"] == 0

high = scen["high_concurrency"]
ratio = high["requests_per_second"] / rps if rps else 0.0
print(f"high_concurrency: {high['connections']} conns -> "
      f"{high['requests_per_second']:.0f} req/s ({ratio:.2f}x baseline), "
      f"{high['failures']} failures")
ok &= high["connections"] >= 1024 and high["failures"] == 0
ok &= ratio >= 0.8

over = scen["overload"]
flat = (over["goodput_second_half_rps"] / over["goodput_first_half_rps"]
        if over["goodput_first_half_rps"] else 0.0)
print(f"overload: {over['rejected_429']} x 429, goodput "
      f"{over['goodput_rps']:.0f} req/s (halves ratio {flat:.2f})")
ok &= over["rejected_429"] > 0 and over["failures"] == 0
ok &= flat >= 0.7
sys.exit(0 if ok else 1)
EOF

echo "=== cluster stage: 3-node loopback cluster ==="
# Three real `tune serve --peers` nodes on loopback, a 16-session grid
# driven through node 1 only. The distributed cache must still dedupe
# cluster-wide: /v1/stats on node 1 must show cluster_cache_hits > 0
# (repeated seeds re-probe configurations owned by nodes 2 and 3), the
# same spec must produce identical results from every node, and all
# three nodes must shut down cleanly on SIGINT.
read -r CP1 CP2 CP3 <<<"$(python3 - <<'EOF'
import socket
socks = [socket.socket() for _ in range(3)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(" ".join(str(s.getsockname()[1]) for s in socks))
for s in socks:
    s.close()
EOF
)"
PEERS="127.0.0.1:${CP1},127.0.0.1:${CP2},127.0.0.1:${CP3}"
for p in "${CP1}" "${CP2}" "${CP3}"; do
  "${BUILD_DIR}/tune" serve --port "${p}" --peers "${PEERS}" \
      > "${NET_TMP}/node_${p}.log" 2>&1 &
  CLUSTER_PIDS+=($!)
done
for p in "${CP1}" "${CP2}" "${CP3}"; do
  up=""
  for _ in $(seq 1 100); do
    grep -q "listening on" "${NET_TMP}/node_${p}.log" && { up=1; break; }
    sleep 0.1
  done
  [ -n "${up}" ] || { echo "cluster node on port ${p} never came up"; exit 1; }
done
NODE1="127.0.0.1:${CP1}"

GRID_PIDS=()
for i in $(seq 0 15); do
  tuner=local; [ $((i % 2)) -eq 1 ] && tuner=annealing
  "${BUILD_DIR}/tune" remote run --server "${NODE1}" --kernel gemm \
      --tuner "${tuner}" --budget 40 --seed $((7 + i % 3)) \
      --backend replay > "${NET_TMP}/grid_${i}.log" 2>&1 &
  GRID_PIDS+=($!)
done
for pid in "${GRID_PIDS[@]}"; do
  wait "${pid}" || { echo "a grid session through node 1 failed"; exit 1; }
done

"${BUILD_DIR}/tune" remote stats --server "${NODE1}" \
    > "${NET_TMP}/node1_stats.json"
grep -q '"cluster_cache_hits": [1-9]' "${NET_TMP}/node1_stats.json" \
    || { echo "expected cross-node cache hits on node 1"; exit 1; }

# Any node answers any session identically (the distributed cache is
# the only state); only the server-side wall clock may differ.
"${BUILD_DIR}/tune" remote run --server "127.0.0.1:${CP2}" --kernel gemm \
    --tuner local --budget 40 --seed 7 --backend replay \
    | sed 's/, server wall:.*//' > "${NET_TMP}/node2_run.txt"
"${BUILD_DIR}/tune" remote run --server "127.0.0.1:${CP3}" --kernel gemm \
    --tuner local --budget 40 --seed 7 --backend replay \
    | sed 's/, server wall:.*//' > "${NET_TMP}/node3_run.txt"
cmp "${NET_TMP}/node2_run.txt" "${NET_TMP}/node3_run.txt" \
    || { echo "nodes 2 and 3 disagree on an identical spec"; exit 1; }

# --any-node failover: first candidate is a dead port, the client must
# skip it and use node 1.
"${BUILD_DIR}/tune" remote stats --server "127.0.0.1:1,${NODE1}" \
    --any-node > /dev/null \
    || { echo "--any-node failed to skip the dead node"; exit 1; }

for pid in "${CLUSTER_PIDS[@]}"; do
  kill -INT "${pid}"
done
for pid in "${CLUSTER_PIDS[@]}"; do
  wait "${pid}" || { echo "a cluster node exited non-zero"; exit 1; }
done
CLUSTER_PIDS=()
echo "3-node cluster ok (ports ${CP1}/${CP2}/${CP3})"

echo "=== cluster throughput (BENCH_cluster.json): dedup + compact relay ==="
# Gates (the cluster's two claims, from the in-process 3-node bench):
#   exactly_once      cluster-wide unique evaluations <= single-node;
#   traces_identical  every session trace bit-identical to single-node;
#   relay_ratio       delta-frame bytes < 25% of naive JSON re-shipping;
#   cluster_cache_hits > 0 (the cluster actually shared something).
"${BUILD_DIR}/cluster_throughput" --sessions 12 --budget 40 \
    --out BENCH_cluster.json > /dev/null
python3 - <<'EOF'
import json, sys
with open("BENCH_cluster.json") as f:
    report = json.load(f)
single, cluster = report["single"], report["cluster"]
ratio = cluster["relay_ratio"]
print(f"single: {single['evaluations']} evals in {single['wall_ms']:.0f}ms; "
      f"cluster: {cluster['evaluations']} evals in {cluster['wall_ms']:.0f}ms, "
      f"{cluster['cluster_cache_hits']} cross-node hits, "
      f"relay ratio {ratio:.3f}")
ok = report["exactly_once"] and report["traces_identical"]
ok &= cluster["cluster_cache_hits"] > 0
ok &= ratio < 0.25
sys.exit(0 if ok else 1)
EOF

echo "=== bench smoke (sanitized, reduced sizes) ==="
# table8 on the two smallest spaces with a light GBDT drives the whole
# compiled pipeline (materialization, rank/select, counting) under ASan.
cmake --build "${SAN_DIR}" -j "${JOBS}" --target table8_search_spaces
"${SAN_DIR}/table8_search_spaces" --trees 20 pnpoly nbody

# micro_framework is only configured when google-benchmark is installed.
# Probe the generator's target list so a *build failure* still fails CI
# (only a genuinely absent target is skipped). Capture the list before
# grepping: `... | grep -q` exits on first match and can SIGPIPE cmake,
# which pipefail then (flakily) reports as a probe failure.
SAN_TARGETS="$(cmake --build "${SAN_DIR}" --target help 2>/dev/null || true)"
if echo "${SAN_TARGETS}" \
    | grep -q '^\.\.\. micro_framework\|^micro_framework'; then
  cmake --build "${SAN_DIR}" -j "${JOBS}" --target micro_framework
  "${SAN_DIR}/micro_framework" \
      --benchmark_filter='Neighbors|FfgBuild|BatchEvaluateReplay|HttpParseRequest|SessionResultToJson' \
      --benchmark_min_time=0.05

  echo "=== io perf data points (BENCH_io.json) ==="
  # The persistence trajectory, from the *release* build: CSV parse vs
  # mmap open, owned-table vs zero-copy replay lookups. The json lands
  # next to the build dir so successive CI runs are comparable.
  "${BUILD_DIR}/micro_framework" \
      --benchmark_filter='Dataset|ReplayLookup' \
      --benchmark_format=json --benchmark_min_time=0.1 > BENCH_io.json
  python3 - <<'EOF' 2>/dev/null || true
import json
with open("BENCH_io.json") as f:
    data = json.load(f)
times = {b["name"]: b["real_time"] for b in data["benchmarks"]}
csv, bin = times.get("BM_DatasetLoadCsv"), times.get("BM_DatasetOpenBinary")
if csv and bin:
    print(f"binary open+first-lookup is {csv / bin:.0f}x faster than CSV load")
EOF
else
  echo "google-benchmark not available - skipping micro_framework smoke"
fi

echo "CI OK"
