#!/usr/bin/env bash
# Runs the full statistical audit suite, including the slow high-power
# variants that the default ctest run skips, and (optionally) repeats it
# under ASan+UBSan. See docs/testing.md for what each label covers.
#
# Usage:
#   tools/run_audits.sh [build_dir]          # slow audits in build_dir
#   P3GM_AUDIT_SANITIZE=1 tools/run_audits.sh
#       also configures build-asan/ with -DP3GM_SANITIZE=address,undefined
#       and reruns the audit labels there (including `kernels`: the
#       product tiles' ragged edges, padded panels and in-place reads),
#       and configures build-tsan/ with -DP3GM_SANITIZE=thread and runs
#       the `threads` label there (the thread pool, the obs rings, the
#       profilers, serve stress).
#
# Every run also checks that the kernel libraries hold no FMA
# instruction: the products promise a multiply then an add per term, and
# only -ffp-contract=off keeps the compiler from fusing them where the
# target (e.g. an avx512f function) offers FMA.
#
# Every suite runs even if an earlier one fails; the exit status is
# nonzero if any audit failed.

set -euo pipefail

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

if [ ! -f "$build_dir/CTestTestfile.cmake" ]; then
  echo "run_audits.sh: configuring $build_dir" >&2
  cmake -B "$build_dir" -S "$repo_root"
fi
cmake --build "$build_dir" -j

failures=0

echo "== audit suite (including slow high-power variants) =="
P3GM_RUN_SLOW_AUDITS=1 ctest --test-dir "$build_dir" -L audit \
  --output-on-failure -j4 || failures=$((failures + 1))

echo "== golden trace =="
P3GM_RUN_SLOW_AUDITS=1 ctest --test-dir "$build_dir" -L golden \
  --output-on-failure || failures=$((failures + 1))

echo "== inference runtime bit-exactness =="
ctest --test-dir "$build_dir" -L infer \
  --output-on-failure -j4 || failures=$((failures + 1))

echo "== synthesis-quality monitoring =="
ctest --test-dir "$build_dir" -L quality \
  --output-on-failure -j4 || failures=$((failures + 1))

echo "== profiler signal-handler safety =="
ctest --test-dir "$build_dir" -L profile \
  --output-on-failure || failures=$((failures + 1))

echo "== no FMA in the kernel libraries =="
for lib in src/linalg/libp3gm_linalg.a src/nn/libp3gm_nn.a \
           src/infer/libp3gm_infer.a; do
  if ! code=$(objdump -d "$build_dir/$lib"); then
    echo "run_audits.sh: cannot disassemble $lib" >&2
    failures=$((failures + 1))
    continue
  fi
  fused=$(grep -cE '\svfn?m(add|sub)' <<< "$code" || true)
  if [ "$fused" -ne 0 ]; then
    echo "run_audits.sh: $lib holds $fused FMA instruction(s)" >&2
    failures=$((failures + 1))
  fi
done

if [ "${P3GM_AUDIT_SANITIZE:-0}" != "0" ]; then
  asan_dir="$repo_root/build-asan"
  echo "== audit suite under ASan+UBSan ($asan_dir) =="
  cmake -B "$asan_dir" -S "$repo_root" \
    -DP3GM_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=Debug
  cmake --build "$asan_dir" -j
  P3GM_RUN_SLOW_AUDITS=1 ctest --test-dir "$asan_dir" -L audit \
    --output-on-failure -j4 || failures=$((failures + 1))
  echo "== inference runtime under ASan+UBSan ($asan_dir) =="
  ctest --test-dir "$asan_dir" -L infer \
    --output-on-failure -j4 || failures=$((failures + 1))
  echo "== synthesis-quality monitoring under ASan+UBSan ($asan_dir) =="
  ctest --test-dir "$asan_dir" -L quality \
    --output-on-failure -j4 || failures=$((failures + 1))
  echo "== profiler signal-handler safety under ASan+UBSan ($asan_dir) =="
  ctest --test-dir "$asan_dir" -L profile \
    --output-on-failure || failures=$((failures + 1))
  echo "== product kernels under ASan+UBSan ($asan_dir) =="
  ctest --test-dir "$asan_dir" -L kernels \
    --output-on-failure -j4 || failures=$((failures + 1))

  tsan_dir="$repo_root/build-tsan"
  echo "== thread and signal-handler safety under TSan ($tsan_dir) =="
  cmake -B "$tsan_dir" -S "$repo_root" -DP3GM_SANITIZE=thread
  cmake --build "$tsan_dir" -j
  ctest --test-dir "$tsan_dir" -L threads \
    --output-on-failure || failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "run_audits.sh: $failures audit suite(s) FAILED" >&2
  exit 1
fi
echo "run_audits.sh: all audits passed"
