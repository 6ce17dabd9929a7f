#!/usr/bin/env bash
# Repo check: the tier-1 build + test gate, then a ThreadSanitizer build of
# the concurrency-bearing tests (avd::runtime, avd::obs — including the
# labeled registry, trace sampler, flight recorder, ops server and sample
# profiler suites — and the shared EventLog), then a profiling smoke test
# that fails on an empty or invalid merged trace, a missing flight bundle,
# or a missing collapsed profile, then a curl sweep of every live ops
# endpoint against a serving process.
#
#   scripts/check.sh            # full tier-1 + TSan + profiling smoke
#   scripts/check.sh --tsan-only
#   scripts/check.sh --chaos-only   # just the chaos lane (fault injection +
#                                   # admission + overload suites under TSan)
#   scripts/check.sh --asan         # just the kernel sanitizer lane (image,
#                                   # HOG, detect and dataset suites under
#                                   # ASan + UBSan + libstdc++ assertions)
#   scripts/check.sh --stress       # just the repeat-stress lane (runtime,
#                                   # obs and the pooled HOG scanner under
#                                   # TSan, each suite run many times over)
#
# The TSan pass builds into build-tsan/ (kept out of git by .gitignore) with
# -DAVD_SANITIZE=thread and runs only the test binaries whose code runs
# worker threads; a single reported race fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
TSAN_ONLY=0
CHAOS_ONLY=0
[[ "${1:-}" == "--tsan-only" ]] && TSAN_ONLY=1
[[ "${1:-}" == "--chaos-only" ]] && CHAOS_ONLY=1
ASAN_ONLY=0
[[ "${1:-}" == "--asan" ]] && ASAN_ONLY=1
STRESS_ONLY=0
[[ "${1:-}" == "--stress" ]] && STRESS_ONLY=1

# The repeat-stress lane: a race that fires once in a few hundred runs passes
# a single TSan pass. So the concurrency-bearing suites (avd::runtime,
# avd::obs, and the pooled block-grid scanner's MultiModelScanTest) run
# under ThreadSanitizer with --gtest_repeat, every report fatal, each binary
# bounded by `timeout` so a hang fails the lane instead of stalling it.
# Shares build-tsan/ with the TSan lane; its own CI job.
if [[ "$STRESS_ONLY" -eq 1 ]]; then
  echo "== stress: configure + build (build-tsan/) =="
  cmake -B build-tsan -S . -DAVD_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_runtime test_obs test_detect
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
  echo "== stress: test_runtime x3 =="
  timeout 1800 ./build-tsan/tests/test_runtime --gtest_repeat=3
  echo "== stress: test_obs x50 =="
  timeout 900 ./build-tsan/tests/test_obs --gtest_repeat=50
  echo "== stress: MultiModelScanTest x20 =="
  timeout 900 ./build-tsan/tests/test_detect \
    --gtest_filter='MultiModelScanTest.*' --gtest_repeat=20
  echo "== stress lane passed =="
  exit 0
fi

# The kernel sanitizer lane: the pixel kernels index rows, planes and lookup
# tables through computed offsets, so the suites that drive them (image, HOG,
# the detectors, dataset rendering) run under AddressSanitizer, UBSan with
# every report fatal, and libstdc++'s bounds assertions. Its own build tree,
# build-asan/ (kept out of git by .gitignore), and its own CI job.
if [[ "$ASAN_ONLY" -eq 1 ]]; then
  echo "== ASan+UBSan: configure + build (build-asan/) =="
  cmake -B build-asan -S . -DAVD_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" \
    >/dev/null
  cmake --build build-asan -j "$JOBS" \
    --target test_image test_hog test_detect test_datasets
  export ASAN_OPTIONS="halt_on_error=1"
  export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"
  for t in test_image test_hog test_detect test_datasets; do
    echo "== ASan+UBSan: $t =="
    "./build-asan/tests/$t"
  done
  echo "== kernel sanitizer lane passed =="
  exit 0
fi

# The chaos lane: every fault-injection, admission and overload-path test,
# under ThreadSanitizer. Deliberately its own lane (and its own CI job) —
# these suites drive the StreamServer through source stalls/errors/garbage,
# queue saturation, watchdog fires and ladder transitions, which is exactly
# where a concurrency bug would hide.
CHAOS_FILTER='FaultInjectionTest.*:Admission.*'
run_chaos_lane() {
  echo "== TSan: chaos lane (fault injection + admission) =="
  ./build-tsan/tests/test_runtime --gtest_filter="$CHAOS_FILTER"
}

if [[ "$CHAOS_ONLY" -eq 1 ]]; then
  echo "== chaos: configure + build (build-tsan/) =="
  cmake -B build-tsan -S . -DAVD_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_runtime
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
  run_chaos_lane
  echo "== chaos lane passed =="
  exit 0
fi

if [[ "$TSAN_ONLY" -eq 0 ]]; then
  echo "== tier-1: build =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  echo "== tier-1: ctest =="
  (cd build && ctest --output-on-failure -j "$JOBS")
fi

echo "== TSan: configure + build (build-tsan/) =="
cmake -B build-tsan -S . -DAVD_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j "$JOBS" --target test_runtime test_soc test_obs test_detect

echo "== TSan: runtime tests =="
# halt_on_error: any data race fails the run (and hence this script).
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
./build-tsan/tests/test_runtime --gtest_filter="-$CHAOS_FILTER"
run_chaos_lane
./build-tsan/tests/test_soc --gtest_filter='EventLog.*'
./build-tsan/tests/test_obs
# The pooled scanners: block-grid levels/bands and the batched dark scan on
# a shared ThreadPool must be race-free and deterministic
# (MultiModelScanTest and DarkScanPool cover pool-vs-reference).
./build-tsan/tests/test_detect --gtest_filter='MultiModelScanTest.*:WindowAnchorPositions.*:DarkScanPool.*'

echo "== smoke: profile_pipeline =="
# The example traces a full serving run and exits non-zero itself if the
# merged Chrome trace is empty, invalid JSON, missing a layer's spans, or
# missing the per-frame flow arcs / connected frame-trace chains. It also
# forces an SLO breach and validates the flight-recorder bundle the server
# dumps next to the trace.
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" --target profile_pipeline frame_slo_monitor
SMOKE_DIR="$(mktemp -d -t avd_smoke_XXXX)"
SMOKE_TRACE="$SMOKE_DIR/pipeline_profile.json"
SMOKE_JSONL="$SMOKE_DIR/frame_slo_telemetry.jsonl"
trap 'kill "${OPS_PID:-}" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
./build/examples/profile_pipeline "$SMOKE_TRACE" >/dev/null
[[ -s "$SMOKE_TRACE" ]] || { echo "smoke: trace file empty"; exit 1; }
ls "$SMOKE_DIR"/flight_bundle_*.json >/dev/null 2>&1 \
  || { echo "smoke: no flight bundle dumped"; exit 1; }
[[ -s "$SMOKE_DIR/pipeline_profile.collapsed" ]] \
  || { echo "smoke: no collapsed profile written"; exit 1; }

echo "== smoke: frame_slo_monitor =="
# Exits non-zero itself if health states or the telemetry JSONL sink are
# wrong; quick end-to-end coverage of the SLO monitoring path.
./build/examples/frame_slo_monitor "$SMOKE_JSONL" >/dev/null
[[ -s "$SMOKE_JSONL" ]] || { echo "smoke: telemetry sink empty"; exit 1; }

echo "== smoke: live introspection (curl sweep) =="
# live_introspection validates every ops endpoint in-process (strict JSON
# parsing, the /healthz 200 -> 503 flip, detect stacks in /profilez) and
# lingers so an EXTERNAL scraper sees the same payloads over the wire.
# While it serves, curl each endpoint; afterwards re-validate the curl
# captures with the example's own --parse / --parse-collapsed linters.
cmake --build build -j "$JOBS" --target live_introspection
OPS_PORT_FILE="$SMOKE_DIR/ops_port"
./build/examples/live_introspection \
  --port-file "$OPS_PORT_FILE" --linger-seconds 20 \
  >"$SMOKE_DIR/live_introspection.log" 2>&1 &
OPS_PID=$!
# Fail fast and loud on port-file problems: the sweep is useless without a
# live listener, and the two failure shapes need different fixes — a dead
# process (ops listener failed to bind, example crashed) vs a live process
# that never published its port (port-file plumbing broke).
for _ in $(seq 1 200); do
  [[ -s "$OPS_PORT_FILE" ]] && break
  if ! kill -0 "$OPS_PID" 2>/dev/null; then
    echo "smoke: live_introspection exited before publishing its ops port" \
         "(ops listener bind failure or startup crash — log follows)"
    cat "$SMOKE_DIR/live_introspection.log"
    exit 1
  fi
  sleep 0.1
done
[[ -s "$OPS_PORT_FILE" ]] || {
  echo "smoke: live_introspection is running but $OPS_PORT_FILE never" \
       "appeared within 20s (port-file plumbing broke — log follows)"
  cat "$SMOKE_DIR/live_introspection.log"
  kill "$OPS_PID" 2>/dev/null; exit 1; }
OPS_PORT="$(cat "$OPS_PORT_FILE")"
[[ "$OPS_PORT" =~ ^[0-9]+$ ]] || {
  echo "smoke: ops port file holds '$OPS_PORT', not a port number"
  kill "$OPS_PID" 2>/dev/null; exit 1; }
OPS_URL="http://127.0.0.1:$OPS_PORT"
curl -fsS -D "$SMOKE_DIR/metricsz.head" -o "$SMOKE_DIR/metricsz.txt" \
  "$OPS_URL/metricsz"
grep -qi '^content-type: text/plain; version=0.0.4' "$SMOKE_DIR/metricsz.head" \
  || { echo "smoke: /metricsz content type is not the Prometheus exposition"
       cat "$SMOKE_DIR/metricsz.head"; exit 1; }
grep -q '^process_uptime_seconds ' "$SMOKE_DIR/metricsz.txt" \
  || { echo "smoke: /metricsz lacks process_uptime_seconds"; exit 1; }
curl -fsS -o "$SMOKE_DIR/metricsz.json"  "$OPS_URL/metricsz.json"
curl -fsS -o "$SMOKE_DIR/healthz.json"   "$OPS_URL/healthz"
curl -fsS -o "$SMOKE_DIR/tracez.json"    "$OPS_URL/tracez"
curl -fsS -o "$SMOKE_DIR/flightz.json"   "$OPS_URL/flightz"
curl -fsS -o "$SMOKE_DIR/statusz.json"   "$OPS_URL/statusz"
curl -fsS -o "$SMOKE_DIR/profilez.collapsed" "$OPS_URL/profilez?seconds=1.0"
curl -fsS -o "$SMOKE_DIR/profilez.json" \
  "$OPS_URL/profilez?seconds=0.3&format=json"
wait "$OPS_PID" || { echo "smoke: live_introspection self-check failed"
                     cat "$SMOKE_DIR/live_introspection.log"; exit 1; }
for payload in metricsz.json healthz.json tracez.json flightz.json \
               statusz.json profilez.json; do
  ./build/examples/live_introspection --parse "$SMOKE_DIR/$payload" \
    || { echo "smoke: curl capture $payload failed the strict parser"; exit 1; }
done
./build/examples/live_introspection \
  --parse-collapsed "$SMOKE_DIR/profilez.collapsed" \
  || { echo "smoke: curled /profilez stacks invalid or empty"; exit 1; }

if [[ "$TSAN_ONLY" -eq 0 && "${AVD_SKIP_BENCH_DIFF:-0}" -ne 1 ]]; then
  echo "== bench_diff: headline perf vs checked-in BENCH/ baseline =="
  # Runs the headline benchmarks into a temp dir and fails on a >15%
  # regression (5-point absolute slack for the obs overhead percentages)
  # against the committed trajectory in BENCH/. Skip on known-noisy boxes
  # with AVD_SKIP_BENCH_DIFF=1; re-baseline intentional perf changes with
  #   scripts/bench_diff BENCH "$dir" --update
  cmake --build build -j "$JOBS" --target \
    scan_throughput dark_scan_throughput runtime_scaling obs_overhead \
    overload_soak many_stream_soak
  BENCH_OUT="$(mktemp -d -t avd_bench_XXXX)"
  trap 'kill "${OPS_PID:-}" 2>/dev/null || true; rm -rf "$SMOKE_DIR" "$BENCH_OUT"' EXIT
  # many_stream_soak must run at its default 256 streams here: the checked-in
  # baseline was recorded at that scale and admitted_fps scales with stream
  # count (the reduced-stream CI lane is a separate job with no baseline).
  for b in scan_throughput dark_scan_throughput runtime_scaling obs_overhead \
           overload_soak many_stream_soak; do
    AVD_BENCH_DIR="$BENCH_OUT" "./build/bench/$b" >/dev/null
  done
  scripts/bench_diff BENCH "$BENCH_OUT"
fi

echo "== all checks passed =="
