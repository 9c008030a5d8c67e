#!/usr/bin/env bash
# Sanitized tier-1 run: build the whole tree with ASan+UBSan (MSA_SANITIZE)
# and run the tier-1 ctest suite under it.  Catches lifetime/aliasing bugs
# the plain build can't — the Storage/ParamStore slab model hands out views
# into shared buffers, exactly the kind of code sanitizers exist for.  The
# suite includes the CommAsync/Overlap tests, so the progress engine's
# deferred closures (captured Comm snapshots, wire buffers held across the
# backward pass) get lifetime-checked here too.  The whole tree is built
# because the suite's bench_gate runs the bench binaries.
#
# Usage: bench/run_sanitized.sh
# Env:   BUILD_DIR (default build-asan), MSA_THREADS (default: all cores)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD_DIR:-build-asan}

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMSA_SANITIZE=ON \
  -DMSA_OBS=ON >/dev/null
cmake --build "$BUILD" -j "$(nproc)" >/dev/null

# halt_on_error so a sanitizer report fails the run rather than scrolling by.
export ASAN_OPTIONS=${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}
export UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}

cd "$BUILD"
ctest --output-on-failure -j "$(nproc)"

# Second pass over just the chaos label (fault injection, fail-slow, recovery,
# hybrid-mesh kills): redundant with the full suite above but cheap, and it
# keeps the label wired so `ctest -L chaos` stays a supported entry point.
ctest --output-on-failure -L chaos

# Same deal for the serving label (msa::serve + forward_inference): the serve
# router hands slab views and reply buffers across rank threads, which is
# exactly what this build exists to check.
ctest --output-on-failure -L serve

# Post-mortem path under the sanitizers: arm the flight recorder via env and
# drive the injected-kill tests — Runtime::run's failure hook must leave a
# parseable dump behind (the dump walks every rank's span tail plus the
# critpath analysis, all freshly-freed-adjacent memory if anything is wrong).
FLIGHT="$PWD/flight_postmortem.json"
rm -f "$FLIGHT"
MSA_FLIGHT_OUT="$FLIGHT" ./tests/msa_tests --gtest_filter='Fault*'
python3 - "$FLIGHT" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["reason"], "post-mortem missing reason"
assert d["ranks"], "post-mortem missing rank tails"
assert "critpath" in d and "metrics" in d, "post-mortem missing analysis"
print(f"flight post-mortem OK: {sys.argv[1]} "
      f"({len(d['ranks'])} rank tails, reason={d['reason']!r})")
PY
