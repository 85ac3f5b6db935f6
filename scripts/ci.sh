#!/usr/bin/env bash
# Tier-1 verify, the ROADMAP.md recipe
#   cmake -B build -S . && cmake --build build -j && cd build && ctest --output-on-failure -j
# with every build and ctest step bounded at -j "$(nproc)": a bare -j lets
# make start every ready compile at once. After it come a perfbench
# answer-check smoke (one 2-second traced run per workload); bench smokes
# on tiny instances whose JSON is re-checked here (bench_engine,
# bench_scale, bench_models and bench_churn, each skipped when not built);
# a Release build with its own ctest run; an ASan+UBSan pass over every
# ctest case plus a 200-case fuzz smoke; a TSan pass over the threaded
# suites; and fuzz smokes: 200 deterministic differential cases of the §5
# driver against the exact solver, then 60 per diagnosis model. A
# fuzz divergence exits non-zero and leaves minimized repro files in
# build/fuzz-repros/ (uploaded as a CI artifact; check the repro into
# tests/corpus/ once the bug is fixed).
#
# Run from the repository root. Pass extra cmake arguments through, e.g.
#   scripts/ci.sh -DMMDIAG_FORCE_BUNDLED_GTEST=ON
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc)"

cmake -B build -S . "$@"
cmake --build build -j "$jobs"
cd build
ctest --output-on-failure -j "$jobs"

if command -v python3 >/dev/null; then
  # perfbench answer-check smoke: one short traced run per workload (the
  # runner builds its own tree in .bench_build/). A traced run checks every
  # answer and, on every replayed request, the §6 final-run bound;
  # scale-implicit is the only step here that reaches hypercube 20. The
  # last line must be the JSON result, correct and with nothing failed.
  for workload in serve-batch online-lazy scale-implicit churn-online; do
    log="perfbench-$workload.log"
    if ! (cd .. && python3 perfbench/run.py --workload "$workload" --seed 1 \
            --seconds 2 --trace 1) > "$log"; then
      echo "perfbench smoke ($workload): FAILED, see build/$log"
      tail -n 5 "$log"
      exit 1
    fi
    python3 - "$log" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    last = f.read().splitlines()[-1]
result = json.loads(last)
assert result["correct"] is True and result["failed"] == 0, \
    f"perfbench smoke failed ({sys.argv[1]}): {last[:300]}"
print(f"perfbench smoke: {sys.argv[1]}: all {result['attempted']} answers "
      "correct")
PY
  done
else
  echo "perfbench smoke: python3 unavailable, skipped"
fi

if [ -x bench/bench_engine ]; then
  # The engine smoke must show the calibration cache actually caching: on
  # the repeated-spec stream the hit counter has to be nonzero (and
  # eviction must fire on the thrash stream), or the service layer has
  # silently degraded to calibrate-per-request.
  ./bench/bench_engine --smoke --out BENCH_engine.json
  if command -v python3 >/dev/null; then
    python3 - <<'PY'
import json
with open("BENCH_engine.json") as f:
    report = json.load(f)
rows = report["results"]
assert rows, "BENCH_engine.json has no results"
repeated = [r for r in rows if r["stream"] == "repeated-spec"]
assert repeated, "no repeated-spec rows"
for r in repeated:
    assert r["cache_hits"] > 0, f"repeated-spec stream scored no cache hits: {r}"
    assert r["identical_to_direct"], f"engine diverged from direct diagnosis: {r}"
assert any(r["cache_evictions"] > 0 for r in rows if r["stream"] == "thrash"), \
    "thrash stream never evicted"
print("engine smoke: cache hit/evict counters live, results identical to direct")
PY
  else
    echo "engine smoke: python3 unavailable, JSON validation skipped"
  fi
else
  echo "engine smoke: bench_engine not built (google-benchmark missing), skipped"
fi

if [ -x bench/bench_scale ]; then
  # The scale smoke must show the implicit-topology path solving a >= 2^16
  # node instance inside a modest memory budget, bit-identical to the CSR
  # view (the binary itself exits non-zero on divergence; the JSON fields
  # are re-checked here so a reporting bug cannot mask one).
  ./bench/bench_scale --smoke --out BENCH_scale.json
  if command -v python3 >/dev/null; then
    python3 - <<'PY'
import json
with open("BENCH_scale.json") as f:
    report = json.load(f)
rows = report["results"]
assert rows, "BENCH_scale.json has no results"
assert any(r["nodes"] >= 65536 for r in rows), \
    "no row reached 2^16 nodes: the scale path never scaled"
for r in rows:
    if r["csr_checked"]:
        assert r["identical_to_csr"], \
            f"implicit view diverged from the CSR view: {r}"
    assert r["implicit_bytes"] < r["csr_bytes"], \
        f"implicit view not smaller than CSR: {r}"
    assert r["peak_rss_kb"] < 262144, \
        f"scale smoke exceeded the 256 MB peak-RSS budget: {r}"
print(f"scale smoke: {len(rows)} rows, implicit view bit-identical to CSR "
      "inside the peak-RSS budget")
PY
  else
    echo "scale smoke: python3 unavailable, JSON validation skipped"
  fi
else
  echo "scale smoke: bench_scale not built, skipped"
fi

if [ -x bench/bench_models ]; then
  # The model smoke must show every diagnosis model answering (MM*, PMC and
  # BGM global rows all succeed) and the BGM local fast path holding its
  # contract: per-request look-ups within the 2-ball bound and a throughput
  # far above the global solve (the binary itself exits non-zero on a bound
  # violation; the JSON fields are re-checked here so a reporting bug
  # cannot mask one).
  ./bench/bench_models --smoke --out BENCH_models.json
  if command -v python3 >/dev/null; then
    python3 - <<'PY'
import json
with open("BENCH_models.json") as f:
    report = json.load(f)
rows = report["results"]
assert rows, "BENCH_models.json has no results"
models = {r["model"] for r in rows if r["mode"] == "global"}
assert models == {"mm-star", "pmc", "bgm"}, f"missing global rows: {models}"
for r in rows:
    if r["mode"] == "global":
        assert r["succeeded"] == r["syndromes"], f"global solves failed: {r}"
local = [r for r in rows if r["mode"] == "local"]
assert local, "no BGM local-diagnosis row: the fast path never ran"
for r in local:
    assert r["within_lookup_bound"], f"local request broke the bound: {r}"
    assert r["max_request_lookups"] <= r["lookup_bound"], \
        f"max look-ups above the 2-ball bound: {r}"
    assert r["speedup_vs_global_solve"] > 10, \
        f"local fast path not meaningfully faster than a global solve: {r}"
print(f"model smoke: {len(rows)} rows, all models live, local fast path "
      "within its look-up bound")
PY
  else
    echo "model smoke: python3 unavailable, JSON validation skipped"
  fi
else
  echo "model smoke: bench_models not built, skipped"
fi

if [ -x bench/bench_churn ]; then
  # The churn smoke must show the warm incremental path holding bit-identity
  # against cold full recalibration on hostile generated streams (expected
  # errors included), and the steady-state solve cache actually serving:
  # timed-repeat rows spend zero warm look-ups while cold re-solves every
  # round (the binary itself exits non-zero on divergence; the JSON fields
  # are re-checked here so a reporting bug cannot mask one).
  ./bench/bench_churn --smoke --out BENCH_churn.json
  if command -v python3 >/dev/null; then
    python3 - <<'PY'
import json
with open("BENCH_churn.json") as f:
    report = json.load(f)
assert report["all_identical"], "a warm churn answer diverged from cold"
rows = report["results"]
assert rows, "BENCH_churn.json has no results"
harness = [r for r in rows if r["mode"] == "harness"]
assert harness, "no harness rows: no churn stream was replayed"
assert any(r["oracle"] == "table" for r in harness), "no table-oracle row"
for r in harness:
    assert r["identical_warm_cold"], f"warm diverged from cold: {r}"
    assert r["divergences"] == 0, f"harness reported divergences: {r}"
    assert r["expected_errors"] > 0, f"hostile events never fired: {r}"
    assert r["topology_events"] > 0 and r["diagnose_events"] > 0, \
        f"degenerate stream: {r}"
    assert r["warm_recert_components"] < r["cold_recert_components"], \
        f"incremental recertification did no less work than cold: {r}"
repeat = [r for r in rows if r["mode"] == "timed-repeat"]
assert repeat, "no timed-repeat rows: the solve cache was never measured"
for r in repeat:
    assert r["identical_warm_cold"], f"cached answer diverged from cold: {r}"
    assert r["warm_lookups"] == 0, f"steady-state warm path spent look-ups: {r}"
    assert r["cold_lookups"] > 0, f"degenerate cold reference: {r}"
print(f"churn smoke: {len(harness)} harness rows bit-identical warm vs cold, "
      "steady-state cache serves with zero look-ups")
PY
  else
    echo "churn smoke: python3 unavailable, JSON validation skipped"
  fi
else
  echo "churn smoke: bench_churn not built, skipped"
fi

# hardware_threads must be present in every bench report that carries
# speed numbers, so a reader can tell a 1-thread CI container's timings
# from a workstation's.
if command -v python3 >/dev/null; then
  python3 - <<'PY'
import json
for name in ("BENCH_engine.json", "BENCH_scale.json", "BENCH_models.json",
             "BENCH_churn.json"):
    try:
        with open(name) as f:
            report = json.load(f)
    except FileNotFoundError:
        continue  # that bench was skipped above
    assert "hardware_threads" in report, f"{name} lost its hardware_threads meta"
    assert report["hardware_threads"] >= 1, f"{name} hardware_threads degenerate"
print("meta smoke: hardware_threads recorded in every emitted bench report")
PY
fi

# Release pass: the default build is RelWithDebInfo, so optimiser-only
# diagnostics (GCC 12's -Wrestrict on string building, for one) would
# otherwise surface first in a user's -DCMAKE_BUILD_TYPE=Release build.
# Warnings stay errors here, and the tier-1 suites run against the -O3
# NDEBUG code.
cd ..
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release "$@"
cmake --build build-release -j "$jobs"
(cd build-release && ctest --output-on-failure -j "$jobs")

# ASan+UBSan pass over every ctest case (the gtest suites, the corpus
# replays and the CLI usage cases) and the 200-case fuzz smoke: an
# out-of-bounds word read, a use-after-free across shared calibrations or a
# shift past a word's width aborts the run instead of passing silently.
# Benches are left out: no ctest case runs them.
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DMMDIAG_BUILD_BENCH=OFF "$@"
cmake --build build-asan -j "$jobs"
(cd build-asan && ctest --output-on-failure -j "$jobs")
if [ -x build-asan/examples/mmdiag_cli ]; then
  ./build-asan/examples/mmdiag_cli fuzz --cases 200 --seed 1 --max-bugs 3 \
    --budget-seconds 120 --out-dir build-asan/fuzz-repros \
    | tee build-asan/fuzz-smoke.log
  if grep -q "budget exhausted" build-asan/fuzz-smoke.log; then
    echo "asan fuzz smoke: FAILED — budget exhausted before the case stream ran"
    exit 1
  fi
fi
echo "asan+ubsan: every ctest case and the fuzz smoke clean"

# TSan pass over the suites that run threads: serve() used as a batch
# (batch_test), the engine's calibration cache and serve lanes, the churn
# engine, and ThreadPool itself (util_test). Only those suites are built.
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
  -DMMDIAG_BUILD_BENCH=OFF -DMMDIAG_BUILD_EXAMPLES=OFF "$@"
cmake --build build-tsan -j "$jobs" --target batch_test engine_test churn_test \
  util_test
for suite in batch_test engine_test churn_test util_test; do
  "./build-tsan/tests/$suite"
done
echo "tsan: batch, engine, churn and util suites race-free"
cd build

if [ -x examples/mmdiag_cli ]; then
  # Fixed seed so the case stream is reproducible from the log alone;
  # budgeted so a pathological slowdown cannot hang CI — but an exhausted
  # budget means the smoke did NOT cover its cases, which must fail too.
  ./examples/mmdiag_cli fuzz --cases 200 --seed 1 --max-bugs 3 \
    --budget-seconds 120 --out-dir fuzz-repros | tee fuzz-smoke.log
  if grep -q "budget exhausted" fuzz-smoke.log; then
    echo "fuzz smoke: FAILED — budget exhausted before the case stream ran" \
         "(differential cases have slowed down drastically)"
    exit 1
  fi
  # Per-model streams: each differ voice (MM*, PMC, BGM) must survive a
  # dedicated smoke against its own exact solver, not just whatever mix the
  # default rotation happened to draw.
  for model in mm-star pmc bgm; do
    ./examples/mmdiag_cli fuzz --model "$model" --cases 60 --seed 2 \
      --max-bugs 3 --budget-seconds 120 --out-dir fuzz-repros \
      | tee "fuzz-smoke-$model.log"
    if grep -q "budget exhausted" "fuzz-smoke-$model.log"; then
      echo "fuzz smoke ($model): FAILED — budget exhausted before the" \
           "case stream ran"
      exit 1
    fi
  done
  echo "fuzz smoke: clean (default rotation + one stream per model)"
else
  echo "fuzz smoke: mmdiag_cli not built (examples disabled), skipped"
fi
