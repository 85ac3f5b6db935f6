#!/usr/bin/env bash
# Tier-1 verify, the ROADMAP.md recipe
#   cmake -B build -S . && cmake --build build -j && cd build && ctest --output-on-failure -j
# with every build and ctest step bounded at -j "$(nproc)": a bare -j lets
# make start every ready compile at once. Before it, every "DESIGN.md §x.y"
# citation in the sources is checked against DESIGN.md's headings. After it
# come a perfbench answer-check smoke (one 2-second traced run per
# workload); the paper record (bench_paper, whose BENCH_paper.json is
# re-checked here); a Release build with its own ctest run; an ASan+UBSan
# pass over every ctest case plus a 200-case fuzz smoke; a TSan pass over
# the threaded suites; and fuzz smokes: 200 deterministic differential
# cases of the §5 driver against the exact solver, then 60 per diagnosis
# model. A fuzz divergence exits non-zero and leaves minimized repro files in
# build/fuzz-repros/ (uploaded as a CI artifact; check the repro into
# tests/corpus/ once the bug is fixed).
#
# Run from the repository root. Pass extra cmake arguments through, e.g.
#   scripts/ci.sh -DMMDIAG_FORCE_BUNDLED_GTEST=ON
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc)"

# Every "DESIGN.md §x.y" citation must name a heading of DESIGN.md.
for section in $(grep -rhoE 'DESIGN\.md §[0-9]+(\.[0-9]+)*' src tests \
                   examples bench | sed 's/.*§//' | sort -u); do
  if ! grep -qE "^#+ §${section//./\\.}( |\$)" DESIGN.md; then
    echo "DESIGN.md has no heading for the cited §$section"
    exit 1
  fi
done

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

if [ -x bench/bench_paper ]; then
  # The paper-reproduction record (EXPERIMENTS.md): bench_paper exits
  # non-zero when an exact claim fails. The JSON is re-checked so that a
  # reporting bug cannot mask a failed claim or a dropped experiment.
  if ! ./bench/bench_paper --out BENCH_paper.json > bench-paper.log; then
    grep FAILS bench-paper.log || true
    echo "paper record: FAILED, see build/bench-paper.log"
    exit 1
  fi
  python3 - <<'PY'
import json
with open("BENCH_paper.json") as f:
    report = json.load(f)
assert report["all_claims_hold"] is True, "a bench_paper claim failed"
assert report["hardware_threads"] >= 1, "hardware_threads missing"
experiments = {row["experiment"] for row in report["results"]}
expected = {f"E{i}" for i in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13)}
assert experiments == expected, f"experiments with rows: {sorted(experiments)}"
print(f"paper record: {len(report['results'])} rows, every claim holds")
PY
else
  echo "paper record: bench_paper not built (MMDIAG_BUILD_BENCH=OFF), skipped"
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
